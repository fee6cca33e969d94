"""Closed-form kernel identities, kept as oracles for the general code.

The package builds every kernel from one integer determinant per term
(``zonal_kernel``) and every certificate by one triangular change of
basis; these closed forms are independent formulas the tests check
those results against:

* ``schur_in_zonal_basis``: the column-shape normalized Schur
  polynomial X*_(1^i) as a combination of column kernels;
* ``zonal_product_column``: the exact four-term kernel expansion of
  Z_(1) Z_(1^i);
* ``pieri_e1``: the product X*_(1) X*_(1^j) in normalized Schurs;
* ``weyl_dim`` of ``highest_weight``: the Weyl dimension formula over
  all C(n, 2) pairs of the length-n signature, the oracle for the
  O(m^2) product of ``harmonic_dim``;
* ``down_set_size``: the number of shapes below kappa as a lattice-path
  determinant, the oracle for the length of ``partitions.down_set``;
* ``bialternant_kernel``: the kernel from one full m x m determinant per
  term, the oracle for the l(mu) x l(mu) minors of ``zonal_kernel``.
"""

import math
from itertools import combinations
from typing import Dict

from grassdesign.partitions import Partition, binom, column_shape, down_set, hook_shape
from grassdesign.scalars import rational
from grassdesign.symfunc import SchurExpansion, schur_norm
from grassdesign.zonal import ZonalPolynomial, _require_ambient, harmonic_dim, zonal_kernel

from exact_oracles import det


def schur_in_zonal_basis(i: int, m: int, n: int) -> Dict[Partition, object]:
    """Column-shape normalized Schur polynomial as a kernel combination.

    Returns the coefficients d_j of Z_(1^j), j = 0..i, in the expansion of
    X*_(1^i); all strictly positive in the admissible range.
    """
    _require_ambient(m, n)
    if not 0 <= i <= m:
        raise ValueError(f"column height {i} outside 0..{m}")
    out = {}
    for j in range(i + 1):
        out[column_shape(j, m)] = (
            rational(n + 1, n - j + 1)
            * binom(m - j, i - j)
            * binom(n - m, j)
            / (binom(n - j, i) * binom(n + 1, j) ** 2)
        )
    return out


class ColumnProductExpansion:
    """Exact four-term kernel expansion of Z_(1) * Z_(1^i).

    Coefficients: ``hook`` on the hook kernel, ``up``/``same``/``down`` on
    the column kernels of heights i+1, i, i-1.  The ``up`` term does not
    exist at i = m and the ``same`` coefficient vanishes with the square
    factor (n - 2m)^2 at n = 2m.
    """

    __slots__ = ("i", "m", "n", "hook", "up", "same", "down")

    def __init__(self, i, m, n, hook, up, same, down):
        self.i, self.m, self.n = i, m, n
        self.hook, self.up, self.same, self.down = hook, up, same, down

    def terms(self) -> Dict[Partition, object]:
        out = {hook_shape(self.i, self.m): self.hook}
        if self.i < self.m:
            out[column_shape(self.i + 1, self.m)] = self.up
        if self.same:
            out[column_shape(self.i, self.m)] = self.same
        out[column_shape(self.i - 1, self.m)] = self.down
        return out

    def evaluate(self, y):
        """The four-term sum at y, each kernel by its Schur expansion, not by the package's Jacobi-h table."""
        total = rational(0)
        for sigma, c in self.terms().items():
            total = total + c * zonal_kernel(sigma, self.n).expansion.evaluate(y)
        return total


def zonal_product_column(i: int, m: int, n: int) -> ColumnProductExpansion:
    """Product of the degree-one kernel with a column kernel, exactly."""
    _require_ambient(m, n)
    if not 1 <= i <= m:
        raise ValueError(f"column height {i} outside 1..{m}")
    hook_coeff = rational(
        (i + 1) * (m + 1) * n * (n - 1) * (n - i + 2) * (n - m + 1),
        i * m * (n + 2) * (n + 3) * (n - i + 1) * (n - m),
    )
    if i < m:
        up = rational(
            (i + 1) * (m - i) * n * (n - 1) * (n + 1) * (n - m - i),
            m * (n - i + 1) * (n - 2 * i) * (n - 2 * i - 1) * (n - m),
        )
    else:
        up = rational(0)
    if n == 2 * m:
        # the (n - 2m)^2 numerator factor wins against the vanishing
        # denominator factors at i = m; verified by the product identity
        same = rational(0)
    else:
        same = rational(
            2 * i * (n - 1) * (n + 1) * (n - i + 1) * (n - 2 * m) ** 2,
            m * (n + 2) * (n - 2 * i) * (n - 2 * i + 2) * (n - m),
        )
    down = rational(
        (m - i + 1) * n * (n + 1) * (n - 1) * (n - i + 2) * (n - m - i + 1),
        i * m * (n - 2 * i + 2) * (n - 2 * i + 3) * (n - m),
    )
    return ColumnProductExpansion(i, m, n, hook_coeff, up, same, down)


def pieri_e1(j: int, m: int) -> SchurExpansion:
    """Expansion of the product X*_(1) X*_(1^j) in the normalized-Schur basis.

    The product splits over the two shapes obtained by adding one box to a
    height-j column; the taller column drops out at j = m.
    """
    if not 1 <= j <= m:
        raise ValueError(f"column height {j} outside 1..{m}")
    terms = [(hook_shape(j, m), rational(j * (m + 1), (j + 1) * m))]
    if j < m:
        terms.append((column_shape(j + 1, m), rational(m - j, (j + 1) * m)))
    return SchurExpansion(m, terms)


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


def down_set_size(kappa: Partition) -> int:
    """Number of partitions sigma <= kappa, det[binom(kappa_i + 1, i - j + 1)]."""
    m = kappa.m
    return det(
        [
            [math.comb(kappa.parts[i] + 1, i - j + 1) if j <= i + 1 else 0 for j in range(m)]
            for i in range(m)
        ]
    )


def bialternant_terms(mu: Partition, n: int) -> list:
    """The integer terms (sigma, c_sigma) of the kernel of mu on G(m, n), one full m x m bialternant each.

    With alpha = n - 2m, k_i = mu_i + m - i and l_j = sigma_j + m - j, the
    coefficient of X*_sigma is proportional to
    (-1)^{|sigma|} s_sigma(1) det[binom(k_i + alpha + l_j, l_j) binom(k_i, l_j)]
    (Roy, J. Algebraic Combin. 2010).
    """
    m = mu.m
    _require_ambient(m, n)
    alpha = n - 2 * m
    ks = [p + m - i for i, p in enumerate(mu.parts, start=1)]
    terms = []
    for sigma in down_set(mu):
        ls = [s + m - j for j, s in enumerate(sigma.parts, start=1)]
        c = schur_norm(sigma).numerator * det(
            [[math.comb(k + alpha + l, l) * math.comb(k, l) for l in ls] for k in ks]
        )
        terms.append((sigma, -c if sigma.weight % 2 else c))
    return terms


def bialternant_kernel(mu: Partition, n: int) -> ZonalPolynomial:
    """Kernel of mu on G(m, n) from :func:`bialternant_terms`, scaled to the dimension at ones."""
    terms = bialternant_terms(mu, n)
    total = sum(c for _, c in terms)
    dim = harmonic_dim(mu, n)
    return ZonalPolynomial.from_expansion(mu, n, SchurExpansion(mu.m, [(s, rational(c * dim, total)) for s, c in terms]))
