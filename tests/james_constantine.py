"""James-Constantine kernel construction, kept as an oracle for ``zonal_kernel``.

The package builds each kernel from one integer determinant per term of
its expansion.  This module builds the same kernels the older way, by
an independent route:

* ``generalized_binomial``: the coefficients [kappa; sigma] of the
  shifted expansion X*_kappa(y + 1) = sum_sigma [kappa; sigma] X*_sigma(y);
* ``hyper_coeff_pair``: the two-partition hypergeometric coefficients,
  from the weight-gap recursion over single-box increments;
* ``zonal_james_constantine``: the kernel
  sum_{sigma <= mu} (-1)^{|sigma|} [mu; sigma] pair(n) / hyper(m, sigma)
  over X*_sigma, rescaled to the dimension at the all-ones point;

together with the partition helpers only this recursion uses.
"""

from functools import lru_cache
from typing import Dict, Optional

from grassdesign.partitions import Partition, binom, down_set
from grassdesign.scalars import as_rational, rational
from grassdesign.symfunc import SchurExpansion, schur_norm
from grassdesign.zonal import ZonalPolynomial, _require_ambient, harmonic_dim

from exact_oracles import det, expansion_at_ones, scaled_expansion


class PoleError(ArithmeticError):
    """A coefficient recursion hit a pole at the requested parameter."""


def ascending(c, s: int):
    """Rising product c (c+1) ... (c+s-1), empty product 1."""
    if s < 0:
        raise ValueError(f"length must be nonnegative, got {s}")
    out = 1
    for i in range(s):
        out = out * (c + i)
    return out


def hyper_coeff(c, sigma: Partition):
    """Hypergeometric coefficient prod_i (c - i + 1)_{sigma_i}."""
    out = 1
    for i, p in enumerate(sigma.parts, start=1):
        out = out * ascending(c - i + 1, p)
    return out


def double_content_sum(sigma: Partition) -> int:
    """sum_i sigma_i (sigma_i - 2i + 1), i.e. twice the cell-content sum."""
    return sum(p * (p - 2 * i + 1) for i, p in enumerate(sigma.parts, start=1))


def increment_part(sigma: Partition, i: int) -> Optional[Partition]:
    """Increase part i (1-based) by one if the result is still a partition."""
    if not 1 <= i <= sigma.m:
        raise IndexError(f"part index {i} outside 1..{sigma.m}")
    parts = list(sigma.parts)
    parts[i - 1] += 1
    if i > 1 and parts[i - 2] < parts[i - 1]:
        return None
    return Partition(parts)


def increment_set(sigma: Partition, kappa: Partition) -> list:
    """Indices i whose increment keeps sigma a partition inside kappa."""
    out = []
    for i in range(1, sigma.m + 1):
        up = increment_part(sigma, i)
        if up is not None and up <= kappa:
            out.append(i)
    return out


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
    sigma is known when sigma is reached.  A pole is stored as its
    ``PoleError`` and passed on to every shape whose recursion meets it
    first.
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

    The base choice rescales the whole family by a constant, which drops
    out after kernel normalization.
    """
    if not sigma <= kappa:
        raise ValueError(f"{sigma} not contained in {kappa}")
    value = _hyper_coeff_table(as_rational(c), kappa)[sigma]
    if isinstance(value, PoleError):
        raise PoleError(*value.args)
    return value


@lru_cache(maxsize=None)
def zonal_james_constantine(mu: Partition, n: int) -> ZonalPolynomial:
    """Kernel of mu on G(m, n) from generalized binomial coefficients."""
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
    total = expansion_at_ones(tilde)
    if not total:
        raise PoleError(f"degenerate unnormalized kernel for {mu} at n = {n}")
    return ZonalPolynomial.from_expansion(mu, n, scaled_expansion(tilde, rational(harmonic_dim(mu, n)) / total))
