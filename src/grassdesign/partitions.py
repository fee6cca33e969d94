"""Partition combinatorics and exact binomial-type coefficients.

Partitions here are weakly decreasing tuples of nonnegative integers with
an explicit ambient length (trailing zeros stored, never implied).  They
index the harmonic components of function space on the Grassmannian and
the Schur-polynomial bases used throughout the package.
"""

from __future__ import annotations

import math
import operator
from itertools import combinations_with_replacement
from typing import Iterable, Optional

from .exactlinalg import det
from .scalars import rational

# Most shapes a down-set or a weight-capped enumeration may hold.  A kernel
# costs one small determinant per shape of its down-set: the largest
# down-sets inside the budget at ranks 2 to 5 build in about a second.
SHAPE_BUDGET = 10_000

# Largest rank m a shape enumeration takes.  Each shape of a kernel costs
# one m x m determinant of integers that grow with m: at the budget the
# two-term kernel of (1) builds in about a second.
RANK_BUDGET = 64


class ShapeLimitError(ArithmeticError):
    """A shape enumeration would exceed SHAPE_BUDGET or RANK_BUDGET."""


def _check_rank(m: int):
    if m > RANK_BUDGET:
        raise ShapeLimitError(f"rank {m} exceeds the budget of {RANK_BUDGET}")


class Partition:
    """Weakly decreasing tuple of nonnegative integers of fixed ambient length.

    Equality is strict, i.e. ``Partition([1, 0])`` differs from
    ``Partition([1])``; compare :meth:`trimmed` tuples to ignore trailing
    zeros.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int], m: Optional[int] = None):
        parts = tuple(map(int, parts))
        if m is not None:
            if len(parts) > m:
                raise ValueError(f"{len(parts)} parts exceed ambient length {m}")
            parts = parts + (0,) * (m - len(parts))
        if parts and min(parts) < 0:
            raise ValueError(f"negative part in {parts}")
        if parts != tuple(sorted(parts, reverse=True)):
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
        a, b = self.parts, other.parts
        if len(a) != len(b):
            k = max(len(a), len(b))
            a += (0,) * (k - len(a))
            b += (0,) * (k - len(b))
        return all(map(operator.ge, a, b))

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

    Equals prod_{i=0}^{r-1} (k-i)/(r-i), returned as a ``Fraction``.
    Vanishes for 0 <= k < r; negative k reduces to nonnegative through
    binom(k, r) = (-1)^r binom(r-k-1, r).
    """
    if r < 0:
        raise ValueError(f"lower index must be nonnegative, got {r}")
    if k >= 0:
        return rational(math.comb(k, r))
    return rational((-1) ** r * math.comb(r - k - 1, r))


def enumerate_up_to_weight(m: int, t: int) -> list:
    """All partitions of ambient length m with weight <= t, graded lex."""
    if m < 1:
        raise ValueError(f"ambient length must be positive, got {m}")
    if t < 0:
        raise ValueError(f"weight cap must be nonnegative, got {t}")
    _check_rank(m)
    found = []

    def extend(prefix, cap, remaining):
        if len(prefix) == m:
            if len(found) == SHAPE_BUDGET:
                raise ShapeLimitError(
                    f"more than {SHAPE_BUDGET} shapes of weight <= {t} with at most {m} parts"
                )
            found.append(Partition(prefix))
            return
        for p in range(min(cap, remaining) + 1):
            extend(prefix + (p,), p, remaining - p)

    extend((), t, t)
    found.sort(key=Partition.sort_key)
    return found


def down_set_size(kappa: Partition) -> int:
    """Number of partitions sigma <= kappa, det[binom(kappa_i + 1, i - j + 1)]."""
    m = kappa.m
    return det(
        [
            [math.comb(kappa.parts[i] + 1, i - j + 1) if j <= i + 1 else 0 for j in range(m)]
            for i in range(m)
        ]
    )


def down_set(kappa: Partition) -> list:
    """All partitions sigma <= kappa (same ambient length), graded lex.

    The rank is checked against RANK_BUDGET, and the size against
    SHAPE_BUDGET, before any shape is built.
    """
    _check_rank(kappa.m)
    size = down_set_size(kappa)
    if size > SHAPE_BUDGET:
        raise ShapeLimitError(
            f"the shapes below {kappa.parts} exceed the budget of {SHAPE_BUDGET}"
        )
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
    """Grid of the simplex 1 >= y_1 >= ... >= y_m >= 0, step 1/depth.

    Yields the integer tuples k = depth * y, depth >= k_1 >= ... >= k_m >= 0,
    with the first coordinate slowest and descending.
    """
    if depth < 1:
        raise ValueError(f"grid depth must be positive, got {depth}")
    return combinations_with_replacement(range(depth, -1, -1), m)
