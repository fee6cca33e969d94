"""Design verification, Delsarte-style cardinality bounds, certificates.

A finite configuration X averages a harmonic component exactly when the
kernel sum sum_{a,b in X} Z_mu(y(a, b)) vanishes; the component sums are
the "defects" reported here.  Defects come from the pair invariants,
the elementary symmetric values of the pair angles, with no root found
and no kernel expanded: :func:`zonal.kernel_sums` reads each shape as
one m x m determinant of a Jacobi-h table per pair class.  Exact pairs
are grouped into classes by their invariants, read off the atoms of a
pairwise antipodal set or from the multi-modular pair batch, and give
one integer table per class, so exact configurations with irrational
angles get exact defects too; float pairs enter as the rows of one
array of invariants and share one table evaluation.  A coefficient function c with positive constant term and
pointwise-nonnegative kernel combination F certifies the cardinality
bound F(1,..,1)/c_(0) for any configuration averaging the components
where c is positive.

Each certificate is its defining polynomial written in normalized
Schurs, converted to kernel coefficients by one triangular change of
basis (:func:`kernel_coefficients`), run fraction-free on the kernels'
integer numerators; its expansion in normalized Schurs is summed the
same way, so no ``Fraction`` view of a kernel is built.  Three are
built exactly:

* the product of all principal angles, X*_(1^m) (bound binomial(n, m),
  tight on the maximum antipodal configurations),
* a product-plus-concavity combination whose vanishing forces every
  angle into {0, 1} (same bound; tightness characterizes the maximum
  antipodal configurations),
* the coordinate average X*_(1) (bound n/m for sets averaging all
  degree-one components).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain, islice
from math import comb, gcd, lcm
from typing import Dict, List, Sequence

import numpy as np

from .partitions import (
    Partition,
    binom,
    column_shape,
    descending_grid,
    enumerate_up_to_weight,
    hook_shape,
    row_shape,
)
from .scalars import as_rational, is_exact_real, rational, rational_to_str
from .symfunc import SchurExpansion, ScaledPoints, add_terms
from .zonal import _require_ambient, harmonic_dim, kernel_sums, zonal_kernel
from .grassmann import DEFAULT_TOL, EXACT, SubspaceConfiguration

# Points per batched evaluation in check_nonnegativity.
NONNEG_CHUNK = 4096

# Largest grid-plus-samples count check_nonnegativity accepts; at rank 6
# the full budget takes about 0.75 s for certificate F and 0.5 s for E
# (Intel Xeon, CPython 3.11).
GRID_POINT_BUDGET = 250_000


class GridLimitError(ArithmeticError):
    """The nonnegativity grid and samples exceed the point budget."""


def column_family(m: int) -> List[Partition]:
    """Single-column shapes (1^i), i = 0..m."""
    return [column_shape(i, m) for i in range(m + 1)]


def hook_family(m: int) -> List[Partition]:
    """Hook shapes (2, 1^{i-1}), i = 2..m; empty for m = 1."""
    return [hook_shape(i, m) for i in range(2, m + 1)]


def weight_family(m: int, t: int) -> List[Partition]:
    """All shapes of weight at most t (strength-t design test set)."""
    return enumerate_up_to_weight(m, t)


def parse_family(spec: str, m: int) -> List[Partition]:
    """Resolve a CLI test-set name: 'E', 'F', 'E+F' or 'T<t>'."""
    key = spec.strip().upper()
    if key == "E":
        return column_family(m)
    if key == "F":
        return hook_family(m)
    if key in ("E+F", "F+E"):
        return column_family(m) + hook_family(m)
    if key.startswith("T") and key[1:].isascii() and key[1:].isdigit():
        return weight_family(m, int(key[1:]))
    raise ValueError(f"unknown test set {spec!r} (use E, F, E+F or T<t>)")


@dataclass
class DefectEntry:
    mu: Partition
    defect: object
    dim: int
    passed: bool

    def to_json(self) -> dict:
        val = (
            rational_to_str(self.defect)
            if is_exact_real(self.defect)
            else float(self.defect)
        )
        return {
            "mu": self.mu.to_json(),
            "defect": val,
            "dim": self.dim,
            "pass": self.passed,
        }


@dataclass
class DesignReport:
    """Per-component defects and the overall design verdict for one test set."""

    label: str
    mode: str
    tol: float
    size: int
    entries: List[DefectEntry] = field(default_factory=list)

    @property
    def design(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "mode": self.mode,
            "tol": self.tol,
            "size": self.size,
            "design": self.design,
            "entries": [e.to_json() for e in self.entries],
        }


def is_T_design(
    config: SubspaceConfiguration,
    family: Sequence[Partition],
    tol: float = DEFAULT_TOL,
) -> DesignReport:
    """Check defect vanishing for every shape in the family.

    The zero shape always passes (its defect is |X|^2 by normalization).
    Float verdicts use |defect| <= tol * |X|^2 * dim, scaling the slack
    with the kernel magnitude.
    """
    report = DesignReport(label=config.label, mode=config.mode, tol=tol, size=len(config))
    for mu, defect in zip(family, kernel_sums(family, config.n, *config.invariant_weights())):
        dim = harmonic_dim(mu, config.n)
        if mu.is_zero():
            passed = True
        elif config.mode == EXACT:
            passed = not defect
        else:
            passed = abs(defect) <= tol * len(config) ** 2 * dim
        report.entries.append(DefectEntry(mu=mu, defect=defect, dim=dim, passed=passed))
    return report


class CoefficientFunction:
    """Finitely supported exact coefficients c_mu over shapes of one ambient."""

    __slots__ = ("m", "n", "coeffs", "_expansion")

    def __init__(self, m: int, n: int, coeffs: Dict[Partition, object]):
        self.m = m
        self.n = n
        store = {}
        for mu, c in coeffs.items():
            if mu.m != m:
                raise ValueError(f"ambient mismatch for {mu}")
            c = as_rational(c)
            if c:
                store[mu] = c
        self.coeffs = store
        self._expansion = None

    def coeff(self, mu: Partition):
        return self.coeffs.get(mu, rational(0))

    def support(self) -> List[Partition]:
        return sorted(self.coeffs, key=Partition.sort_key)

    def positive_support(self) -> List[Partition]:
        return [mu for mu in self.support() if self.coeffs[mu] > 0]

    def negative_support(self) -> List[Partition]:
        return [mu for mu in self.support() if self.coeffs[mu] < 0]

    def f_at_ones(self):
        """Value of the kernel combination at the all-ones point."""
        total = rational(0)
        for mu, c in self.coeffs.items():
            total = total + c * harmonic_dim(mu, self.n)
        return total

    @property
    def expansion(self) -> SchurExpansion:
        """F = sum c_mu Z_mu in normalized Schurs, expanded once into one dict.

        Each c_mu Z_mu is the kernel's integer numerators times c_mu's
        numerator, lifted to the common denominator q of the products
        c_mu den_mu; the sums are integers over q, one ``Fraction`` per
        shape at the end.  Shapes keep the order of a ``Fraction`` sum by
        :func:`add_terms`, since a sum over q cancels where that one does.
        """
        if self._expansion is None:
            kernels = [(c, zonal_kernel(mu, self.n)) for mu, c in self.coeffs.items()]
            q = lcm(*(c.denominator * k.den for c, k in kernels))
            total = {}
            for c, k in kernels:
                add_terms(total, k.terms.items(), c.numerator * (q // (c.denominator * k.den)))
            self._expansion = SchurExpansion._built(self.m, {sigma: rational(t, q) for sigma, t in total.items()})
        return self._expansion

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "terms": [
                {"partition": mu.to_json(), "coeff": rational_to_str(self.coeffs[mu])}
                for mu in self.support()
            ],
        }


@dataclass
class BoundRecord:
    bound: object
    f_at_ones: object
    c_zero: object
    t_plus: List[Partition]
    t_minus: List[Partition]

    def to_json(self) -> dict:
        return {
            "bound": rational_to_str(self.bound),
            "f_at_ones": rational_to_str(self.f_at_ones),
            "c_zero": rational_to_str(self.c_zero),
            "t_plus": [mu.to_json() for mu in self.t_plus],
            "t_minus": [mu.to_json() for mu in self.t_minus],
        }


def lp_bound(cert: CoefficientFunction) -> BoundRecord:
    """Cardinality bound F(1,..,1)/c_(0) with the sign-split support.

    Nonnegativity of F on the angle simplex is the caller's obligation;
    see :func:`check_nonnegativity` for grid evidence.
    """
    zero = column_shape(0, cert.m)
    c0 = cert.coeff(zero)
    if not c0 > 0:
        raise ValueError(f"constant coefficient must be positive, got {c0}")
    ones = cert.f_at_ones()
    plus = [mu for mu in cert.positive_support() if not mu.is_zero()]
    minus = cert.negative_support()
    return BoundRecord(
        bound=ones / c0,
        f_at_ones=ones,
        c_zero=c0,
        t_plus=[zero] + plus,
        t_minus=minus,
    )


def kernel_coefficients(poly: SchurExpansion, n: int) -> CoefficientFunction:
    """Coefficients c_mu with sum c_mu Z_mu = poly, by fraction-free triangular elimination.

    Z_mu is X*_mu plus shapes of smaller weight, so subtracting from
    ``poly`` the multiple of Z_mu that cancels its largest shape mu leaves
    only smaller shapes; repeating empties it.  The remainder is integer
    numerators r over one positive denominator q, and Z_mu is its kernel's
    numerators K over den.  With a = r[mu] and b = K[mu], c_mu is
    a den / (q b) and the remainder becomes (b r - a K) / (q b), signs
    flipped when b < 0: den cancels, and the content of the new
    numerators and denominator is divided out.  Each c_mu is one
    ``Fraction``.
    """
    q = lcm(*(c.denominator for c in poly.coeffs.values()))
    rest = {sigma: c.numerator * (q // c.denominator) for sigma, c in poly.coeffs.items()}
    out = {}
    while rest:
        mu = max(rest, key=Partition.sort_key)
        kernel = zonal_kernel(mu, n)
        a, b = rest[mu], kernel.terms[mu]
        if b < 0:
            a, b = -a, -b
        out[mu] = rational(a * kernel.den, q * b)
        rest = add_terms({sigma: b * r for sigma, r in rest.items()}, kernel.terms.items(), -a)
        q *= b
        g = gcd(q, *rest.values())
        if g > 1:
            q //= g
            rest = {sigma: r // g for sigma, r in rest.items()}
    return CoefficientFunction(poly.m, n, out)


def certificate_product(m: int, n: int) -> CoefficientFunction:
    """Kernel coefficients of the product of all principal angles.

    The product is the top column-shape normalized Schur polynomial
    X*_(1^m); its coefficients are strictly positive and the bound equals
    binomial(n, m).
    """
    _require_ambient(m, n)
    return kernel_coefficients(SchurExpansion(m, {column_shape(m, m): 1}), n)


def certificate_antipodal(m: int, n: int) -> CoefficientFunction:
    """Kernel coefficients of B (prod y_i)(sum y_i) + sum y_i (1 - y_i).

    Here B = binomial(n-2, m-1).  Each summand vanishes exactly on angle
    vectors with entries in {0, 1}, which is what makes the tightness
    characterization work.  In normalized Schurs the polynomial reads
    B m X*_(2,1^{m-1}) + m X*_(1) - binom(m+1, 2) X*_(2) + binom(m, 2) X*_(1,1);
    the closed forms of the constant coefficient, the cancelling Z_(2)
    coefficient and the positive hook coefficients are checked on the result.
    """
    _require_ambient(m, n)
    if m < 2:
        raise ValueError("antipodal certificate needs rank at least 2")
    big_b = binom(n - 2, m - 1)
    poly = SchurExpansion(
        m,
        [
            (hook_shape(m, m), big_b * m),
            (column_shape(1, m), m),
            (row_shape(2, m), -binom(m + 1, 2)),
            (column_shape(2, m), binom(m, 2)),
        ],
    )
    cert = kernel_coefficients(poly, n)
    c0 = cert.coeff(column_shape(0, m))
    if c0 != m * big_b / binom(n, m) or c0 != rational(m * m * (n - m), n * (n - 1)):
        raise ArithmeticError(f"constant coefficient {c0} fails its closed form")
    if cert.coeff(hook_shape(1, m)):
        raise ArithmeticError("single-row kernel coefficient should cancel")
    for j in range(2, m + 1):
        if not cert.coeff(hook_shape(j, m)) > 0:
            raise ArithmeticError(f"hook coefficient at height {j} is not positive")
    return cert


def certificate_average(m: int, n: int) -> CoefficientFunction:
    """Kernel coefficients of the coordinate average (sum y_i)/m = X*_(1).

    Certifies the n/m bound for configurations averaging every shape of
    weight one.
    """
    _require_ambient(m, n)
    return kernel_coefficients(SchurExpansion(m, {column_shape(1, m): 1}), n)


@dataclass
class NonnegativityReport:
    """Grid plus sampled evidence that a certificate is pointwise nonnegative.

    Evidence only: a nonnegative minimum over finitely many points proves
    nothing off the grid.
    """

    minimum: object
    argmin: tuple
    points_checked: int
    violations: List[tuple] = field(default_factory=list)

    @property
    def nonnegative_on_grid(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "minimum": rational_to_str(self.minimum),
            "argmin": [rational_to_str(v) for v in self.argmin],
            "points_checked": self.points_checked,
            "violations": [
                [rational_to_str(v) for v in y] for y in self.violations[:32]
            ],
            "nonnegative_on_grid": self.nonnegative_on_grid,
        }


def _samples(m: int, count: int, seed: int):
    """``count`` seeded points ``(ks, 10_000)``, each ks m descending integers in [0, 10,000].

    Each k is what ``random.Random(seed).randint(0, 10_000)`` would draw
    next: randint takes ``getrandbits(14)`` until the value is at most
    10,000, and this runs that loop inline, about four times faster.
    """
    bits = random.Random(seed).getrandbits
    for _ in range(count):
        ks = []
        for _ in range(m):
            k = bits(14)
            while k > 10_000:
                k = bits(14)
            ks.append(k)
        ks.sort(reverse=True)
        yield ks, 10_000


def check_nonnegativity(
    cert: CoefficientFunction,
    grid_depth: int = 20,
    samples: int = 0,
    seed: int = 0,
) -> NonnegativityReport:
    """Evaluate the certificate on a simplex grid plus seeded random points.

    Points stream through the certificate in chunks of NONNEG_CHUNK, one
    call of :meth:`SchurExpansion.numerators` each, so memory stays flat
    in the grid size.  Grid points enter as integers over the grid depth
    and samples as integers over 10,000.  Every point is decided on its
    integer numerator t over the chunk's one denominator q: the sign of t
    for a violation, ``np.argmin`` for the chunk's first minimum, and a
    cross-multiplication between chunks, so the minimum reported is the
    first one in point order.  A ``Fraction`` is built only for the
    minimum, the argmin and the violations.
    """
    if grid_depth < 1 or samples < 0:
        raise ValueError(
            f"need grid depth >= 1 and samples >= 0, got {grid_depth} and {samples}"
        )
    total = comb(grid_depth + cert.m, cert.m) + samples
    if total > GRID_POINT_BUDGET:
        raise GridLimitError(
            f"a depth-{grid_depth} grid at m = {cert.m} and {samples} samples exceed "
            f"the budget of {GRID_POINT_BUDGET} points; lower the grid depth or the sample count"
        )

    grid = ((ks, grid_depth) for ks in descending_grid(cert.m, grid_depth))
    points = chain(grid, _samples(cert.m, samples, seed))
    expansion = cert.expansion
    best = None
    violations = []
    count = 0
    while chunk := ScaledPoints(islice(points, NONNEG_CHUNK)):
        t, q = expansion.numerators(chunk)
        i = int(np.argmin(t))
        # best = (t', q') with q, q' > 0: t_i / q < t' / q' exactly when t_i q' < t' q
        if best is None or t[i] * best[1] < best[0] * q:
            best, best_at = (t[i], q), chunk.point(i)
        violations += [chunk.point(j) for j in np.flatnonzero(t < 0)]
        count += len(chunk)
    return NonnegativityReport(
        minimum=rational(*best), argmin=best_at, points_checked=count, violations=violations
    )
