"""Partition combinatorics and exact binomial-type coefficients.

Partitions here are weakly decreasing tuples of nonnegative integers with
an explicit ambient length (trailing zeros stored, never implied).  They
index the harmonic components of function space on the Grassmannian and
the Schur-polynomial bases used throughout the package.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement
from typing import Iterable, Optional

from .scalars import rational


class Partition:
    """Weakly decreasing tuple of nonnegative integers of fixed ambient length.

    Equality is strict, i.e. ``Partition([1, 0])`` differs from
    ``Partition([1])``; compare :meth:`trimmed` tuples to ignore trailing
    zeros.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int], m: Optional[int] = None):
        parts = tuple(int(p) for p in parts)
        if m is not None:
            if len(parts) > m:
                raise ValueError(f"{len(parts)} parts exceed ambient length {m}")
            parts = parts + (0,) * (m - len(parts))
        if any(p < 0 for p in parts):
            raise ValueError(f"negative part in {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts not weakly decreasing: {parts}")
        self.parts = parts

    @property
    def m(self) -> int:
        """Ambient length (trailing zeros included)."""
        return len(self.parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        """Number of nonzero parts."""
        return sum(1 for p in self.parts if p)

    def trimmed(self) -> tuple:
        k = self.length_index()
        return self.parts[:k]

    def length_index(self) -> int:
        k = len(self.parts)
        while k and not self.parts[k - 1]:
            k -= 1
        return k

    def is_zero(self) -> bool:
        return not self.parts or not self.parts[0]

    def conjugate(self) -> "Partition":
        """Column lengths of the shape, ambient length max(parts[0], 1)."""
        width = max(self.parts[0] if self.parts else 0, 1)
        cols = [0] * width
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def contains(self, other: "Partition") -> bool:
        """Componentwise ``other <= self`` after zero-padding."""
        k = max(len(self.parts), len(other.parts))
        a = self.parts + (0,) * (k - len(self.parts))
        b = other.parts + (0,) * (k - len(other.parts))
        return all(x >= y for x, y in zip(a, b))

    def __le__(self, other):
        return other.contains(self)

    def __lt__(self, other):
        return other.contains(self) and self.parts != other.parts

    def sort_key(self):
        """Graded lexicographic key: weight first, then entries."""
        return (self.weight, self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __len__(self):
        return len(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"

    def to_json(self) -> list:
        return list(self.parts)

    @staticmethod
    def from_json(data, m: Optional[int] = None) -> "Partition":
        return Partition(data, m=m)


def column_shape(i: int, m: int) -> Partition:
    """The shape (1, ..., 1) with i ones, ambient length m."""
    if not 0 <= i <= m:
        raise ValueError(f"column height {i} outside 0..{m}")
    return Partition((1,) * i, m=m)


def row_shape(i: int, m: int) -> Partition:
    """The shape (i, 0, ..., 0) of ambient length m."""
    if i < 0 or m < 1:
        raise ValueError(f"bad row shape ({i}, {m})")
    return Partition((i,), m=m)


def hook_shape(i: int, m: int) -> Partition:
    """The shape (2, 1, ..., 1) with i rows, ambient length m."""
    if not 1 <= i <= m:
        raise ValueError(f"hook height {i} outside 1..{m}")
    return Partition((2,) + (1,) * (i - 1), m=m)


def binom(k: int, r: int):
    """Exact binomial coefficient for any integer k and r >= 0.

    Equals prod_{i=0}^{r-1} (k-i)/(r-i), returned as a backend rational.
    Vanishes for 0 <= k < r; negative k reduces to nonnegative through
    binom(k, r) = (-1)^r binom(r-k-1, r).
    """
    if r < 0:
        raise ValueError(f"lower index must be nonnegative, got {r}")
    if k >= 0:
        return rational(math.comb(k, r))
    return rational((-1) ** r * math.comb(r - k - 1, r))


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


def enumerate_up_to_weight(m: int, t: int) -> list:
    """All partitions of ambient length m with weight <= t, graded lex."""
    if m < 1:
        raise ValueError(f"ambient length must be positive, got {m}")
    if t < 0:
        raise ValueError(f"weight cap must be nonnegative, got {t}")
    found = []

    def extend(prefix, cap, remaining):
        if len(prefix) == m:
            found.append(Partition(prefix))
            return
        for p in range(min(cap, remaining) + 1):
            extend(prefix + (p,), p, remaining - p)

    extend((), t, t)
    found.sort(key=Partition.sort_key)
    return found


def down_set(kappa: Partition) -> list:
    """All partitions sigma <= kappa (same ambient length), graded lex."""
    found = []

    def extend(prefix, i):
        if i == kappa.m:
            found.append(Partition(prefix))
            return
        cap = kappa.parts[i] if i == 0 else min(prefix[-1], kappa.parts[i])
        for p in range(cap + 1):
            extend(prefix + (p,), i + 1)

    extend((), 0)
    found.sort(key=Partition.sort_key)
    return found


def descending_grid(m: int, depth: int):
    """Rational grid of the simplex 1 >= y_1 >= ... >= y_m >= 0, step 1/depth."""
    if depth < 1:
        raise ValueError(f"grid depth must be positive, got {depth}")
    for ks in combinations_with_replacement(range(depth, -1, -1), m):
        yield tuple(rational(k, depth) for k in ks)
