"""Zonal orthogonal polynomials on the complex Grassmannian G(m, n).

Each harmonic component of function space on G(m, n) is indexed by a
partition mu with at most m parts and carries a reproducing kernel, a
symmetric polynomial Z_mu in the m principal angles, normalized so that
its value at the all-ones point equals the component's dimension.  This
module builds these kernels exactly:

* ``zonal_kernel``, the general construction: each coefficient over the
  normalized Schur polynomials is one l(mu) x l(mu) integer minor of
  one-variable Jacobi-polynomial coefficients (the bialternant form,
  whose full m x m determinants are kept in ``tests/closed_forms.py``),
  taken by :func:`exactlinalg.minor` in one integer pass over the
  down-set;
* ``kernel_sums``, the design defects and every kernel value
  (``ZonalPolynomial.evaluate``): per shape one m x m minor of a Jacobi-h
  table per point class, built from its e-values by one three-term
  recurrence in both modes, no kernel expanded;
* closed-form expansions for single-column, single-row and hook shapes,
  kept as independent cross-checks of the general construction.

The James-Constantine recursion, the column change of basis, the
four-term product Z_(1) Z_(1^i) and the full Weyl dimension formula live
in the tests (``tests/james_constantine.py``, ``tests/closed_forms.py``)
as oracles.

Dimensions come from the Weyl product formula applied to the associated
highest weight of the unitary group, in O(m^2) factors, cached per
(mu, n).  A kernel is held as integer numerators over one positive
denominator: ``zonal_kernel`` scales its integer terms by the dimension
over their total, with no ``Fraction`` made, and the s_sigma(1, .., 1)
they carry is taken up to a factor that every shape shares, in
O(l(mu)^2) factors per shape.  The closed forms are converted to the
same form over the lcm of their denominators.  ``to_json`` writes each
coefficient from one gcd; the ``Fraction`` coefficients that the
certificate code reads are a view built on first use.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, inf, isfinite, lcm, perm, prod
from functools import lru_cache
from itertools import combinations, repeat, starmap
from operator import add, ge, sub

import numpy as np

from .exactlinalg import minor
from .partitions import Partition, binom, column_shape, down_set, hook_shape, row_shape
from .scalars import _rational_text, is_exact_real, rational
from .symfunc import SchurExpansion, _elementary_terms


def _require_ambient(m: int, n: int):
    if m < 1:
        raise ValueError(f"rank must be positive, got {m}")
    if n < 2 * m:
        raise ValueError(f"need n >= 2m, got (m, n) = ({m}, {n})")


@lru_cache(maxsize=None)
def harmonic_dim(mu: Partition, n: int) -> int:
    """Dimension of the harmonic component indexed by mu on G(m, n), cached.

    The Weyl product of the unitary-group highest weight
    (mu_1..mu_m, 0.., -mu_m..-mu_1) of length n in O(m^2) factors: pairs
    inside the block of n - 2m zeros give 1, the pairs among the 2m outer
    entries are taken one by one, and part s of row i against the zero
    block gives C(s + n - m - i, s) / C(s + m - i, s), as does its mirror -s.
    """
    _require_ambient(mu.m, n)
    m = mu.m
    # the outer entries with their positions 1..m and n - m + 1..n
    outer = list(enumerate(mu.parts, 1)) + [(n + 1 - i, -mu.parts[i - 1]) for i in range(m, 0, -1)]
    num = den = 1
    for (i, a), (j, b) in combinations(outer, 2):
        num *= a - b + j - i
        den *= j - i
    for i, s in enumerate(mu.parts, 1):
        num *= comb(s + n - m - i, s) ** 2
        den *= comb(s + m - i, s) ** 2
    if num % den:
        raise ArithmeticError(f"non-integral Weyl product for {mu.parts} at n = {n}")
    return num // den


class ZonalPolynomial:
    """Reproducing kernel of one harmonic component, in the X* basis.

    Held as integer numerators c_sigma over one positive denominator
    ``den``: ``terms`` maps each shape of nonzero coefficient to its c_sigma,
    in down-set (graded lex) order.  Invariants checked at construction:
    every term lies in the down-set of mu, and the numerators sum to the
    component dimension times ``den``, the kernel's value at the all-ones
    point.  :attr:`expansion` is the same kernel with ``Fraction``
    coefficients, built on first use and kept.
    """

    __slots__ = ("mu", "n", "dim", "terms", "den", "_expansion")

    def __init__(self, mu: Partition, n: int, terms: dict, den: int):
        _require_ambient(mu.m, n)
        if den < 1:
            raise ArithmeticError(f"kernel for {mu} over denominator {den}, need a positive one")
        dim = harmonic_dim(mu, n)
        total = sum(terms.values())
        if total != dim * den:
            raise ArithmeticError(f"kernel for {mu} sums to {total}/{den} at ones, expected {dim}")
        parts = mu.parts
        for sigma in terms:
            if len(sigma.parts) != len(parts) or not all(map(ge, parts, sigma.parts)):
                raise ArithmeticError(f"kernel for {mu} has stray term {sigma}")
        self.mu = mu
        self.n = n
        self.dim = dim
        self.terms = terms
        self.den = den
        self._expansion = None

    @classmethod
    def from_expansion(cls, mu: Partition, n: int, expansion: SchurExpansion) -> "ZonalPolynomial":
        """The kernel whose coefficients an exact expansion gives, over the lcm of their denominators."""
        if expansion.m != mu.m:
            raise ValueError("expansion ambient mismatch")
        terms = expansion.terms()
        den = lcm(*(c.denominator for _, c in terms))
        return cls(mu, n, {sigma: c.numerator * (den // c.denominator) for sigma, c in terms}, den)

    @property
    def m(self) -> int:
        return self.mu.m

    @property
    def expansion(self) -> SchurExpansion:
        """The kernel as a :class:`SchurExpansion` of ``Fraction`` coefficients, built once."""
        if self._expansion is None:
            den = self.den
            coeffs = {sigma: Fraction(c, den) for sigma, c in self.terms.items()}
            self._expansion = SchurExpansion._built(self.m, coeffs)
        return self._expansion

    def coeff(self, sigma: Partition):
        return self.expansion.coeff(sigma)

    def evaluate(self, y):
        """Z_mu(y) by :func:`kernel_sums` at the invariants of y: a ``Fraction`` at exact y, a float otherwise."""
        e = tuple(_elementary_terms(y, len(y), 1)[1:])  # kernel_sums refuses a length other than m
        return kernel_sums([self.mu], self.n, [e] if all(map(is_exact_real, y)) else np.array([e], dtype=float), [1])[0]

    __call__ = evaluate

    def __eq__(self, other):
        return (
            isinstance(other, ZonalPolynomial)
            and self.mu == other.mu
            and self.n == other.n
            and self.terms.keys() == other.terms.keys()
            and all(c * other.den == other.terms[s] * self.den for s, c in self.terms.items())
        )

    def __repr__(self):
        return f"ZonalPolynomial(mu={self.mu.parts}, n={self.n})"

    def to_json(self) -> dict:
        """Shapes in graded lex order, each coefficient written 'p' or 'p/q' as ``str(Fraction)`` writes it."""
        den = self.den
        return {
            "m": self.m,
            "terms": [{"partition": list(s.parts), "coeff": _rational_text(c, den)} for s, c in self.terms.items()],
            "mu": self.mu.to_json(),
            "n": self.n,
            "dim": self.dim,
        }


def _jacobi_row(k: int, alpha: int, width: int) -> list:
    """C(k + alpha + l, l) C(k, l) for l = 0..width - 1, zero past l = k.

    Times (-1)^(k - l), entry l is the y^l coefficient c_(k, l) of the
    Jacobi polynomial P_k^(alpha, 0)(2y - 1).  Each entry is the last
    times (k + alpha + l + 1)(k - l) / (l + 1)^2, an exact division.
    """
    row = [1]
    for l in range(width - 1):
        row.append(row[-1] * (k + alpha + l + 1) * (k - l) // (l + 1) ** 2)
    return row


@lru_cache(maxsize=None)
def zonal_kernel(mu: Partition, n: int) -> ZonalPolynomial:
    """Kernel of the component mu on G(m, n), the one cached construction.

    Bialternant form of the complex kernels (Roy, Bounds for codes and
    designs in complex subspaces, J. Algebraic Combin. 2010): with
    alpha = n - 2m, k_i = mu_i + m - i and l_j = sigma_j + m - j, the
    coefficient of X*_sigma is proportional to
    (-1)^{|sigma|} s_sigma(1) det[binom(k_i + alpha + l_j, l_j) binom(k_i, l_j)],
    the Jacobi coefficients of :func:`_jacobi_row`.  With
    L = l(mu), rows i > L have k_i = m - i and vanish past l = k_i, so
    the m x m matrix is block upper triangular: its lower-right block is
    triangular with a diagonal that no sigma changes, and the scaling
    cancels it.  Only the top-left L x L integer minor is taken.

    s_sigma(1) is prod_{i<j} (l_i - l_j) / (j - i) over j <= m; the
    denominator is shared by every sigma and cancels too.  Past L,
    l_j = m - j runs through m - L - 1 .. 0, so those pairs give the
    shared tail Vandermonde and, for each i <= L, the falling factorial
    l_i! / (l_i - m + L)!.  Every term c_sigma is an integer, and the
    kernel meets the dimension at the all-ones point as the numerators
    c_sigma dim over the total sum c_sigma, in down-set order, both signs
    flipped when the total is negative; no ``Fraction`` is made.  A zero
    total raises ArithmeticError.
    """
    m = mu.m
    _require_ambient(m, n)
    shapes = down_set(mu)  # checks the shape budget before the rows below are built
    alpha = n - 2 * m
    length = mu.length
    tail = m - length
    offsets = range(m - 1, tail - 1, -1)
    ks = list(map(add, mu.parts[:length], offsets))
    jacobi = [_jacobi_row(k, alpha, ks[0] + 1) for k in ks]
    terms = []
    for sigma in shapes:
        ls = list(map(add, sigma.parts[:length], offsets))
        c = minor(jacobi, ls) * prod(map(perm, ls, repeat(tail))) * prod(starmap(sub, combinations(ls, 2)))
        if c:
            terms.append((sigma, -c if sum(sigma.parts) % 2 else c))
    total = sum(c for _, c in terms)
    dim = harmonic_dim(mu, n)
    scale = dim if total > 0 else -dim
    return ZonalPolynomial(mu, n, {sigma: c * scale for sigma, c in terms}, abs(total))


class FloatRangeError(ArithmeticError):
    """A float kernel sum is not a finite float."""


def _jacobi_h_table(scaled: np.ndarray, d, alpha: int, top: int) -> np.ndarray:
    """The d-scaled Jacobi-h rows T_k[j] = d^(k - m + 1 + j) G_y[k][j], k = 0..top, of every point y, at [j, k, p].

    Row p of ``scaled`` holds d^i e_i(y) at column i - 1: object ints for
    exact points y = a/d, d the lcm of the e_i's denominators and ``d``
    their scales, or floats with d = 1.  G_y[k] is
    L(P_k), L_j(q) = sum_r q_r h_(r - m + 1 + j), and P_k follows its
    three-term recurrence (DLMF 18.9.2), never the large c_(k, r):
    L(1) = (0, .., 0, 1), and L(y q) is L(q) shifted up one place, the
    last entry sum_i (-1)^(i - 1) e_i L_(m - i)(q).  Scaled, the shift of
    T_k is at scale k + 1, T_k and T_(k-1) are lifted by d and d^2, and
    the division by a is exact on ints.
    """
    size, m = scaled.shape
    signed = scaled.T[::-1].copy()  # d^i e_i in row m - i, against the entry T_k[m - i] it multiplies
    signed[m % 2 :: 2] *= -1  # times (-1)^(i - 1)
    divide = np.floor_divide if signed.dtype == object else np.true_divide
    table = np.zeros((top + 1, m, size), dtype=signed.dtype)
    table[0, -1] = 1
    for k in range(top):
        s, cur = 2 * k + alpha, table[k]
        shifted = np.concatenate([cur[1:], (signed * cur).sum(axis=0, keepdims=True)])
        if not k:
            table[1] = (alpha + 2) * shifted - d * cur
            continue
        # a P_(k+1) = (b (2y - 1) + (s + 1) alpha^2) P_k - 2 (k + alpha) k (s + 2) P_(k-1)
        a, b = 2 * (k + 1) * (k + alpha + 1) * s, (s + 1) * (s + 2) * s
        step = 2 * b * shifted + ((s + 1) * alpha**2 - b) * d * cur - 2 * (k + alpha) * k * (s + 2) * d * d * table[k - 1]
        divide(step, a, out=table[k + 1])
    return table.transpose(1, 0, 2)


def _exact_table(points: list, alpha: int, top: int) -> tuple:
    """The scales d of exact points given by (e_1, .., e_m), and their tables as lists [p][j][k]."""
    scales = [lcm(*(v.denominator for v in e)) for e in points]
    scaled = [[v.numerator * (d // v.denominator) * d**i for i, v in enumerate(e)] for e, d in zip(points, scales)]
    table = _jacobi_h_table(np.array(scaled, dtype=object), np.array(scales, dtype=object), alpha, top)
    return scales, table.transpose(2, 0, 1).tolist()


def kernel_sums(family, n: int, invariants, weights) -> list:
    """sum_y w_y Z_mu(y) for each mu, over points y given by their invariants (e_1, .., e_m).

    Exact invariants are tuples of ints or ``Fraction``, float ones the
    rows of an (N, m) array; ``weights`` are their pair counts.  With
    k_i = mu_i + m - i, c_(k, r) the y^r coefficient of P_k^(n - 2m, 0)(2y - 1)
    and G_y[k][j] = sum_r c_(k, r) h_(r - m + j)(y), j = 1..m, Z_mu(y) =
    dim_mu det(G_y[k_i][j]) / det(G_1[k_i][j]): by Jacobi-Trudi both are
    Roy's bialternant det(P_(k_i)(y_j)) / V(y) (Macdonald, Symmetric
    Functions and Hall Polynomials, ch. I, sections 2-3); the h_s come
    from the e_k.  :func:`_jacobi_h_table` builds the table in both modes,
    and its minors at the rows k_i are d^|mu| det(G_y): one
    :func:`exactlinalg.minor` per exact class, lifted to the lcm of the
    classes' d, or closed forms batched over float points for m <= 3 and
    ``np.linalg.det`` beyond.  At y = 1, h_s = C(s + m - 1, m - 1) makes
    G_1[k] a unit anti-triangular combination of the Taylor coefficients
    P_k^(r)(1) / r! = C(k + alpha + r, r) C(k + alpha, alpha + r)
    (DLMF 18.6.1, 18.9.15), r = m - 1 .. 0, whose exact minor is det(G_1).
    Each sum is one division by lcm^|mu| det(G_1): a ``Fraction`` in exact
    mode, a float that raises FloatRangeError naming its shape when it is
    not finite.
    """
    if not family:
        return []
    exact = not isinstance(invariants, np.ndarray)
    m = len(invariants[0]) if exact else invariants.shape[1]
    if {mu.m for mu in family} != {m}:
        raise ValueError(f"partition ambients {sorted({mu.m for mu in family})} vs invariants of length {m}")
    _require_ambient(m, n)
    alpha = n - 2 * m
    rows = [tuple(p + m - i for i, p in enumerate(mu.parts, 1)) for mu in family]
    top = max(ks[0] for ks in rows)
    ones = [[comb(k + alpha + r, r) * comb(k + alpha, alpha + r) for k in range(top + 1)] for r in range(m - 1, -1, -1)]
    if exact:
        scales, tables = _exact_table(invariants, alpha, top)
        common = lcm(*scales)
        lifted = list(zip(np.asarray(weights).tolist(), (common // d for d in scales), tables))
        totals = [sum(c * minor(t, ks) * lift**mu.weight for c, lift, t in lifted) for mu, ks in zip(family, rows)]
    else:
        common = 1
        weights = np.asarray(weights, dtype=float)
        totals = []
        step = max(1, 2**20 // (len(weights) * m * m))  # shapes per pass: about 2^20 block entries
        with np.errstate(all="ignore"):
            table = _jacobi_h_table(invariants, 1.0, alpha, top)
            for start in range(0, len(rows), step):
                index = np.array(rows[start : start + step])
                dets = minor(table, tuple(index.T)) if m <= 3 else np.linalg.det(np.transpose(table[:, index], (1, 3, 2, 0)))
                totals += (dets @ weights).tolist()
    sums = []
    for mu, ks, total in zip(family, rows, totals):
        dim, q = harmonic_dim(mu, n), common**mu.weight * minor(ones, ks)
        if exact:
            sums.append(rational(dim * total, q))
            continue
        try:
            sums.append(dim / q * total)
        except OverflowError:
            sums.append(inf)
        if not isfinite(sums[-1]):
            raise FloatRangeError(f"the float kernel sum for {list(mu.parts)} is not a finite float; use exact entries")
    return sums


def zonal_column(i: int, m: int, n: int) -> ZonalPolynomial:
    """Closed-form kernel for the single-column shape (1^i)."""
    _require_ambient(m, n)
    if not 0 <= i <= m:
        raise ValueError(f"column height {i} outside 0..{m}")
    front = (n - 2 * i + 1) * binom(n + 1, i) ** 2 / ((n + 1) * binom(n - m, i))
    terms = []
    for j in range(i + 1):
        coeff = front * binom(n - i + 1, j) * binom(m - j, i - j)
        if (i - j) % 2:
            coeff = -coeff
        terms.append((column_shape(j, m), coeff))
    return ZonalPolynomial.from_expansion(column_shape(i, m), n, SchurExpansion(m, terms))


def zonal_row(i: int, m: int, n: int) -> ZonalPolynomial:
    """Closed-form kernel for the single-row shape (i)."""
    _require_ambient(m, n)
    if i < 0:
        raise ValueError(f"row length {i} negative")
    front = (n + 2 * i - 1) * binom(n + i - 2, i) ** 2 / ((n - 1) * binom(n - m + i - 1, i))
    terms = []
    for j in range(i + 1):
        coeff = front * binom(n + i + j - 2, j) * binom(m + i - 1, i - j)
        if (i - j) % 2:
            coeff = -coeff
        terms.append((row_shape(j, m), coeff))
    return ZonalPolynomial.from_expansion(row_shape(i, m), n, SchurExpansion(m, terms))


def zonal_hook(i: int, m: int, n: int) -> ZonalPolynomial:
    """Closed-form kernel for the hook shape (2, 1^{i-1})."""
    _require_ambient(m, n)
    if not 1 <= i <= m:
        raise ValueError(f"hook height {i} outside 1..{m}")
    common = (
        i
        * (i + 1)
        * (n + 3)
        * (n - 2 * i + 1)
        * binom(n + 1, i + 1) ** 2
        / ((n - i + 2) * (n - m + 1) * binom(n - m, i))
    )
    f2 = common * (n + 2)
    f1 = common * (m + 1)
    f0 = common * i * (m + 1) * binom(m, i) / ((i + 1) * (n - i + 2))
    if i % 2 == 0:
        f0 = -f0
    terms = [(column_shape(0, m), f0)]
    for j in range(1, i + 1):
        base = binom(m - j, i - j) * binom(n - i, j - 1)
        c2 = f2 * base / (j + 1)
        c1 = f1 * base / j
        if (i - j) % 2:
            c2 = -c2
        else:
            c1 = -c1
        terms.append((hook_shape(j, m), c2))
        terms.append((column_shape(j, m), c1))
    return ZonalPolynomial.from_expansion(hook_shape(i, m), n, SchurExpansion(m, terms))
