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

from .scalars import rational

# Most shapes a down-set or a weight-capped enumeration may hold; shapes
# are counted as they are built, so a set past the budget stops after
# building this many.  A kernel costs one small determinant per shape of
# its down-set: the largest down-sets inside the budget at ranks 2 to 5
# build in about a second.
SHAPE_BUDGET = 10_000

# Largest rank m a shape enumeration takes.  Each shape of a kernel costs
# one l(mu) x l(mu) minor, whatever m, but the kernel's dimension takes
# O(m^2) factors: at the budget the kernel of (3, 3, 2) builds in about
# 0.03 s.
RANK_BUDGET = 64


class ShapeLimitError(ArithmeticError):
    """A shape enumeration would exceed SHAPE_BUDGET or RANK_BUDGET."""


def _check_rank(m: int):
    if m > RANK_BUDGET:
        raise ShapeLimitError(f"rank {m} exceeds the budget of {RANK_BUDGET}")


def as_index(v) -> int:
    """An integer part or length: ints and numpy ints pass; bools, floats and text raise ValueError."""
    if not isinstance(v, bool):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise ValueError(f"not an integer: {v!r}")


class Partition:
    """Weakly decreasing tuple of nonnegative integers of fixed ambient length.

    Equality is strict, i.e. ``Partition([1, 0])`` differs from
    ``Partition([1])``; compare ``parts[:length]`` to ignore trailing
    zeros.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int], m: Optional[int] = None):
        parts = tuple(map(as_index, parts))
        if m is not None:
            m = as_index(m)
            if len(parts) > m:
                raise ValueError(f"{len(parts)} parts exceed ambient length {m}")
            parts = parts + (0,) * (m - len(parts))
        if parts and min(parts) < 0:
            raise ValueError(f"negative part in {parts}")
        if parts != tuple(sorted(parts, reverse=True)):
            raise ValueError(f"parts not weakly decreasing: {parts}")
        self.parts = parts

    @classmethod
    def _built(cls, parts: tuple) -> "Partition":
        """A shape of parts that a builder has made valid, taken without re-validation."""
        shape = object.__new__(cls)
        shape.parts = parts
        return shape

    @property
    def m(self) -> int:
        """Ambient length (trailing zeros included)."""
        return len(self.parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        """Number of nonzero parts, which is also the index past the last one."""
        return len(self.parts) - self.parts.count(0)

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


def _shapes(caps: tuple, weight: int, message: str) -> list:
    """Weakly decreasing p with p_i <= caps[i] and |p| <= weight, graded lex.

    caps is weakly decreasing.  The rank len(caps) is checked against
    RANK_BUDGET first; shapes are built depth first and counted as they
    are built, and the one past SHAPE_BUDGET raises ShapeLimitError(message).
    """
    m = len(caps)
    _check_rank(m)
    found = []

    def extend(prefix, cap, remaining):
        i = len(prefix)
        top = min(cap, caps[i], remaining) if i < m else 0
        if not top:  # every later part is 0 as well
            if len(found) == SHAPE_BUDGET:
                raise ShapeLimitError(message)
            found.append(prefix + (0,) * (m - i))
            return
        for p in range(top + 1):
            extend(prefix + (p,), p, remaining - p)

    extend((), weight, weight)
    # built in lex order, so a stable sort by weight gives graded lex
    found.sort(key=sum)
    return [Partition._built(parts) for parts in found]


def enumerate_up_to_weight(m: int, t: int) -> list:
    """All partitions of ambient length m with weight <= t, graded lex."""
    if m < 1:
        raise ValueError(f"ambient length must be positive, got {m}")
    if t < 0:
        raise ValueError(f"weight cap must be nonnegative, got {t}")
    return _shapes((t,) * m, t, f"more than {SHAPE_BUDGET} shapes of weight <= {t} with at most {m} parts")


def down_set(kappa: Partition) -> list:
    """All partitions sigma <= kappa (same ambient length), graded lex."""
    return _shapes(kappa.parts, kappa.weight, f"the shapes below {kappa.parts} exceed the budget of {SHAPE_BUDGET}")


def descending_grid(m: int, depth: int):
    """Grid of the simplex 1 >= y_1 >= ... >= y_m >= 0, step 1/depth.

    Yields the integer tuples k = depth * y, depth >= k_1 >= ... >= k_m >= 0,
    with the first coordinate slowest and descending.
    """
    if depth < 1:
        raise ValueError(f"grid depth must be positive, got {depth}")
    return combinations_with_replacement(range(depth, -1, -1), m)
