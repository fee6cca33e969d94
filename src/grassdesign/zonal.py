"""Zonal orthogonal polynomials on the complex Grassmannian G(m, n).

Each harmonic component of function space on G(m, n) is indexed by a
partition mu with at most m parts and carries a reproducing kernel, a
symmetric polynomial Z_mu in the m principal angles, normalized so that
its value at the all-ones point equals the component's dimension.  This
module builds these kernels exactly:

* the general James-Constantine expansion over normalized Schur
  polynomials, driven by generalized binomial coefficients read off a
  closed-form binomial determinant;
* closed-form expansions for single-column, single-row and hook shapes,
  kept as independent cross-checks of the general construction.

The column change of basis and the four-term product Z_(1) Z_(1^i) live
in the tests (``tests/closed_forms.py``) as oracles.

Dimensions come from the Weyl product formula applied to the associated
highest weight of the unitary group.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import Dict

from .exactlinalg import det
from .partitions import (
    Partition,
    binom,
    column_shape,
    down_set,
    double_content_sum,
    hook_shape,
    hyper_coeff,
    increment_part,
    increment_set,
    row_shape,
)
from .scalars import as_rational, rational
from .symfunc import SchurExpansion, schur_norm


class PoleError(ArithmeticError):
    """A coefficient recursion hit a pole at the requested parameter."""


def _require_ambient(m: int, n: int):
    if m < 1:
        raise ValueError(f"rank must be positive, got {m}")
    if n < 2 * m:
        raise ValueError(f"need n >= 2m, got (m, n) = ({m}, {n})")


def highest_weight(mu: Partition, n: int) -> tuple:
    """Length-n signature (mu_1..mu_m, 0.., -mu_m..-mu_1) of the component."""
    _require_ambient(mu.m, n)
    m = mu.m
    return mu.parts + (0,) * (n - 2 * m) + tuple(-p for p in reversed(mu.parts))


def weyl_dim(signature: tuple) -> int:
    """Dimension of the unitary-group irrep with the given signature."""
    pairs = list(combinations(range(len(signature)), 2))
    num = math.prod(signature[i] - signature[j] + j - i for i, j in pairs)
    den = math.prod(j - i for i, j in pairs)
    if num % den:
        raise ArithmeticError(f"non-integral Weyl product for {signature}")
    return num // den


def harmonic_dim(mu: Partition, n: int) -> int:
    """Dimension of the harmonic component indexed by mu on G(m, n)."""
    return weyl_dim(highest_weight(mu, n))


@lru_cache(maxsize=None)
def _generalized_binomial_table(kappa: Partition) -> Dict[Partition, object]:
    """Coefficients of X*_sigma(y) in the shifted expansion of X*_kappa(y+1).

    Closed form from s_kappa(1 + x) = sum_sigma d(kappa, sigma) s_sigma(x),
    d(kappa, sigma) = det[binom(kappa_i + m - i, sigma_j + m - j)]
    (Macdonald, Symmetric Functions and Hall Polynomials, I.3 Ex. 10),
    rescaled to the normalized basis by s_sigma(1) / s_kappa(1).
    """
    m = kappa.m
    top = [k + m - i for i, k in enumerate(kappa.parts, start=1)]
    norm = schur_norm(kappa)
    table = {}
    for sigma in down_set(kappa):
        low = [s + m - j for j, s in enumerate(sigma.parts, start=1)]
        d = det([[binom(a, b) for b in low] for a in top])
        table[sigma] = d * schur_norm(sigma) / norm
    return table


def generalized_binomial(kappa: Partition, sigma: Partition):
    """Generalized binomial coefficient of the shifted-argument expansion."""
    if kappa.m != sigma.m:
        raise ValueError(f"ambient mismatch: {kappa} vs {sigma}")
    if not sigma <= kappa:
        return rational(0)
    return _generalized_binomial_table(kappa)[sigma]


@lru_cache(maxsize=None)
def _hyper_coeff_table(c, kappa: Partition) -> Dict[Partition, object]:
    """The weight-gap recursion below kappa, solved bottom-up for every sigma.

    Shapes are visited largest first, so each single-box increment of
    sigma is known when sigma is reached, and no call nests deeper than
    one level however large |kappa| - |sigma| gets.  A pole is stored as
    its ``PoleError`` and passed on to every shape whose recursion meets
    it first.
    """
    k = kappa.weight
    table: Dict[Partition, object] = {kappa: rational(1)}
    for sigma in reversed(down_set(kappa)[:-1]):
        s = sigma.weight
        shift = c + rational(double_content_sum(kappa) - double_content_sum(sigma), k - s)
        if not shift:
            table[sigma] = PoleError(f"pole at c = {c} for pair ({kappa}, {sigma})")
            continue
        total = rational(0)
        for i in increment_set(sigma, kappa):
            up = increment_part(sigma, i)
            above = table[up]
            if isinstance(above, PoleError):
                total = above
                break
            total = total + (
                generalized_binomial(kappa, up) * generalized_binomial(up, sigma) * above
            )
        if not isinstance(total, PoleError):
            total = total / ((k - s) * generalized_binomial(kappa, sigma) * shift)
        table[sigma] = total
    return table


def hyper_coeff_pair(c, kappa: Partition, sigma: Partition):
    """Two-partition hypergeometric coefficient, base value 1 at sigma = kappa.

    Defined by the weight-gap recursion summing over single-box increments
    of sigma inside kappa.  The base choice rescales the whole family by a
    constant, which drops out after kernel normalization.
    """
    if not sigma <= kappa:
        raise ValueError(f"{sigma} not contained in {kappa}")
    value = _hyper_coeff_table(as_rational(c), kappa)[sigma]
    if isinstance(value, PoleError):
        raise PoleError(*value.args)
    return value


class ZonalPolynomial:
    """Reproducing kernel of one harmonic component, in the X* basis.

    Invariants checked at construction: the expansion is supported on the
    down-set of mu and evaluates to the component dimension at the all-ones
    point.
    """

    __slots__ = ("mu", "n", "expansion", "dim")

    def __init__(self, mu: Partition, n: int, expansion: SchurExpansion):
        _require_ambient(mu.m, n)
        if expansion.m != mu.m:
            raise ValueError("expansion ambient mismatch")
        dim = harmonic_dim(mu, n)
        if expansion.at_ones() != dim:
            raise ArithmeticError(
                f"kernel for {mu} sums to {expansion.at_ones()} at ones, expected {dim}"
            )
        for sigma in expansion.coeffs:
            if not sigma <= mu:
                raise ArithmeticError(f"kernel for {mu} has stray term {sigma}")
        self.mu = mu
        self.n = n
        self.expansion = expansion
        self.dim = dim

    @property
    def m(self) -> int:
        return self.mu.m

    def coeff(self, sigma: Partition):
        return self.expansion.coeff(sigma)

    def evaluate(self, y):
        return self.expansion.evaluate(y)

    __call__ = evaluate

    def __eq__(self, other):
        return (
            isinstance(other, ZonalPolynomial)
            and self.mu == other.mu
            and self.n == other.n
            and self.expansion == other.expansion
        )

    def __repr__(self):
        return f"ZonalPolynomial(mu={self.mu.parts}, n={self.n})"

    def to_json(self) -> dict:
        out = self.expansion.to_json()
        out.update({"mu": self.mu.to_json(), "n": self.n, "dim": self.dim})
        return out


@lru_cache(maxsize=None)
def zonal_james_constantine(mu: Partition, n: int) -> ZonalPolynomial:
    """General kernel construction from generalized binomial coefficients.

    Builds the unnormalized expansion
    sum_{sigma <= mu} (-1)^{|sigma|} [mu; sigma] pair(n) / hyper(m, sigma)
    over X*_sigma and rescales it to meet the dimension at the all-ones
    point.
    """
    m = mu.m
    _require_ambient(m, n)
    c = rational(n)
    terms = []
    for sigma in down_set(mu):
        val = (
            generalized_binomial(mu, sigma)
            * hyper_coeff_pair(c, mu, sigma)
            / hyper_coeff(m, sigma)
        )
        if sigma.weight % 2:
            val = -val
        terms.append((sigma, val))
    tilde = SchurExpansion(m, terms)
    total = tilde.at_ones()
    if not total:
        raise PoleError(f"degenerate unnormalized kernel for {mu} at n = {n}")
    return ZonalPolynomial(mu, n, tilde.scaled(rational(harmonic_dim(mu, n)) / total))


def zonal_kernel(mu: Partition, n: int) -> ZonalPolynomial:
    """Canonical cached kernel used by design verification."""
    return zonal_james_constantine(mu, n)


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
    return ZonalPolynomial(column_shape(i, m), n, SchurExpansion(m, terms))


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
    return ZonalPolynomial(row_shape(i, m), n, SchurExpansion(m, terms))


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
    return ZonalPolynomial(hook_shape(i, m), n, SchurExpansion(m, terms))
