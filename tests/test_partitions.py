"""Partition combinatorics: shapes, coefficients, binomial identity suite."""

import time
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, strategies as st

from grassdesign.partitions import (
    SHAPE_BUDGET,
    Partition,
    ShapeLimitError,
    binom,
    column_shape,
    descending_grid,
    down_set,
    enumerate_up_to_weight,
    hook_shape,
    row_shape,
)
from grassdesign.scalars import rational

from closed_forms import down_set_size
from james_constantine import (
    ascending,
    double_content_sum,
    hyper_coeff,
    increment_part,
    increment_set,
)


def brute_binom(k: int, r: int):
    # product definition, the independent route
    num, den = 1, 1
    for i in range(r):
        num *= k - i
        den *= r - i
    return rational(num, den) if r else rational(1)


def trimmed(p: Partition) -> tuple:
    """The parts of p without its trailing zeros."""
    return p.parts[: p.length]


class TestPartition:
    def test_valid_construction(self):
        p = Partition([2, 1, 0])
        assert p.parts == (2, 1, 0)
        assert p.m == 3 and p.weight == 3 and p.length == 2

    def test_padding(self):
        assert Partition([2, 1], m=4).parts == (2, 1, 0, 0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Partition([1, 2])
        with pytest.raises(ValueError):
            Partition([1, -1])
        with pytest.raises(ValueError):
            Partition([1, 1, 1], m=2)

    @pytest.mark.parametrize(
        "parts, m, message",
        [
            # an excess over the ambient length is reported first, then a
            # negative part, then the order
            ([-1, 2, 3], 2, "3 parts exceed ambient length 2"),
            ([-1, 0], None, "negative part in (-1, 0)"),
            ([0, -1], None, "negative part in (0, -1)"),
            ([1, 2, -1], None, "negative part in (1, 2, -1)"),
            ([-2], 3, "negative part in (-2, 0, 0)"),
            ([1, 2], None, "parts not weakly decreasing: (1, 2)"),
            ([0, 1], 3, "parts not weakly decreasing: (0, 1, 0)"),
        ],
    )
    def test_errors_keep_their_messages_and_precedence(self, parts, m, message):
        with pytest.raises(ValueError) as err:
            Partition(parts, m=m)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "parts, message",
        [
            # int() would read these as (1, 0), (1, 0), (2, 1) and (2, 1)
            ([1.9, 0.5], "not an integer: 1.9"),
            ([True, False], "not an integer: True"),
            ([2.0, 1], "not an integer: 2.0"),
            ("21", "not an integer: '2'"),
        ],
    )
    def test_non_integer_parts_raise_naming_the_value(self, parts, message):
        with pytest.raises(ValueError) as err:
            Partition(parts)
        assert str(err.value) == message

    @pytest.mark.parametrize("m", [True, 2.0, "2"])
    def test_non_integer_ambient_length_raises(self, m):
        with pytest.raises(ValueError, match="not an integer"):
            Partition([1], m=m)

    def test_numpy_integer_parts_pass(self):
        p = Partition(np.array([3, 1, 0]))
        assert p.parts == (3, 1, 0) and all(type(x) is int for x in p.parts)

    def test_containment_pads_with_zeros(self):
        assert Partition([2, 1]).contains(Partition([2]))
        assert not Partition([2]).contains(Partition([2, 1]))
        assert Partition([2, 1, 0]).contains(Partition([1, 1]))
        assert Partition([]).contains(Partition([0, 0]))
        assert not Partition([1, 1]).contains(Partition([2, 0]))

    def test_strict_equality_and_trim(self):
        assert Partition([1, 0]) != Partition([1])
        assert trimmed(Partition([1, 0])) == trimmed(Partition([1]))

    def test_named_shapes(self):
        assert column_shape(2, 3).parts == (1, 1, 0)
        assert row_shape(3, 2).parts == (3, 0)
        assert hook_shape(3, 4).parts == (2, 1, 1, 0)
        assert hook_shape(1, 2).parts == (2, 0)
        with pytest.raises(ValueError):
            column_shape(4, 3)
        with pytest.raises(ValueError):
            hook_shape(0, 3)

    def test_json_round_trip(self):
        p = Partition([3, 1, 0])
        assert Partition.from_json(p.to_json()) == p
        assert p.to_json() == [3, 1, 0]


class TestConjugate:
    def test_examples(self):
        assert Partition([2, 1, 1, 0]).conjugate().parts == (3, 1)
        assert trimmed(Partition([0, 0]).conjugate()) == ()
        assert Partition([3, 2]).conjugate().parts == (2, 2, 1)

    def test_involution_up_to_trailing_zeros(self):
        for m in range(1, 5):
            for mu in enumerate_up_to_weight(m, 5):
                if mu.parts and mu.parts[0] > m:
                    continue
                back = mu.conjugate().conjugate()
                assert trimmed(back) == trimmed(mu), mu


class TestBinom:
    def test_examples(self):
        assert binom(5, 2) == 10
        assert binom(1, 3) == 0
        assert binom(-2, 3) == -4
        assert brute_binom(-2, 3) == -4
        assert binom(7, 0) == 1

    def test_rejects_negative_lower(self):
        with pytest.raises(ValueError):
            binom(3, -1)

    def test_matches_product_definition(self):
        for k in range(-8, 9):
            for r in range(0, 7):
                assert binom(k, r) == brute_binom(k, r)

    @given(k=st.integers(-30, 30), r=st.integers(0, 12))
    def test_matches_product_definition_property(self, k, r):
        got = binom(k, r)
        assert got == brute_binom(k, r)
        assert type(got) is Fraction

    def test_negation_rule(self):
        for k in range(0, 11):
            for r in range(0, 11):
                assert binom(-k, r) == (-1) ** r * binom(k + r - 1, r)

    def test_vanishing_range(self):
        for k in range(0, 8):
            for r in range(k + 1, 10):
                assert binom(k, r) == 0


class TestBinomialIdentitySuite:
    """The four exact relations used throughout the kernel computations."""

    def test_identity_one(self):
        for n in range(0, 13):
            for m in range(0, n + 1):
                for k in range(0, m + 1):
                    assert binom(n - k, m - k) * binom(n, k) == binom(n, m) * binom(m, k)

    def test_identity_two(self):
        for n in range(0, 13):
            for p in range(0, n + 1):
                for m in range(0, n + 1):
                    lhs = sum(
                        ((-1) ** k) * binom(p, k) * binom(n - k, m - k)
                        for k in range(0, m + 1)
                    )
                    assert lhs == binom(n - p, m)

    def test_vandermonde(self):
        for n in range(0, 13):
            for m in range(0, 13):
                for p in range(0, 13):
                    lhs = sum(binom(n, p - k) * binom(m, k) for k in range(0, p + 1))
                    assert lhs == binom(n + m, p)

    def test_alternating_triple(self):
        for n in range(0, 11):
            for u in range(0, 11):
                for r in range(0, 11):
                    for i in range(0, r + 1):
                        lhs = sum(
                            ((-1) ** (t - i))
                            * binom(t, i)
                            * binom(n - t, r - t)
                            * binom(u, t)
                            for t in range(i, r + 1)
                        )
                        assert lhs == binom(n - u, r - i) * binom(u, i)


class TestCoefficients:
    def test_ascending(self):
        assert ascending(3, 2) == 12
        assert ascending(1, 4) == 24
        assert ascending(rational(7, 2), 0) == 1
        assert ascending(rational(1, 2), 3) == rational(1, 2) * rational(3, 2) * rational(5, 2)

    def test_hyper_coeff(self):
        n = 9
        assert hyper_coeff(n, Partition([1, 0])) == n
        assert hyper_coeff(5, Partition([2, 1])) == 120
        for m in (2, 3):
            for j in range(0, m + 1):
                prod = 1
                for k in range(1, j + 1):
                    prod *= m - k + 1
                assert hyper_coeff(m, column_shape(j, m)) == prod

    def test_double_content_sum(self):
        assert double_content_sum(Partition([0, 0, 0])) == 0
        assert double_content_sum(Partition([2, 1])) == 0
        for i in range(1, 6):
            assert double_content_sum(column_shape(i, 6)) == i - i * i

    def test_double_content_sum_against_cells(self):
        for m in range(1, 5):
            for mu in enumerate_up_to_weight(m, 5):
                cells = 2 * sum(
                    (j - i) for i, row in enumerate(mu.parts) for j in range(row)
                )
                assert double_content_sum(mu) == cells


class TestIncrement:
    def test_examples(self):
        assert increment_part(Partition([1, 1, 0]), 1).parts == (2, 1, 0)
        assert increment_part(Partition([1, 0]), 2).parts == (1, 1)
        assert increment_part(Partition([2, 1]), 2).parts == (2, 2)
        assert increment_part(Partition([1, 1]), 2) is None
        assert increment_part(Partition([0, 0]), 2) is None

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            increment_part(Partition([1, 0]), 3)
        with pytest.raises(IndexError):
            increment_part(Partition([1, 0]), 0)

    def test_increment_set_respects_bound(self):
        # (2,2) is a valid shape but exceeds (2,1), so index 2 is excluded
        assert increment_set(Partition([2, 1]), Partition([2, 1])) == []
        assert increment_set(Partition([1, 0]), Partition([2, 1])) == [1, 2]
        assert increment_set(Partition([1, 1]), Partition([2, 2])) == [1]


class TestEnumeration:
    def test_examples(self):
        assert [p.parts for p in enumerate_up_to_weight(2, 1)] == [(0, 0), (1, 0)]
        assert [p.parts for p in enumerate_up_to_weight(2, 0)] == [(0, 0)]
        assert [p.parts for p in enumerate_up_to_weight(2, 2)] == [
            (0, 0),
            (1, 0),
            (1, 1),
            (2, 0),
        ]

    def test_graded_lex_order(self):
        for m in (1, 2, 3):
            shapes = enumerate_up_to_weight(m, 6)
            keys = [p.sort_key() for p in shapes]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)

    def test_down_set(self):
        ds = [p.parts for p in down_set(Partition([2, 1, 1]))]
        assert ds == [
            (0, 0, 0),
            (1, 0, 0),
            (1, 1, 0),
            (2, 0, 0),
            (1, 1, 1),
            (2, 1, 0),
            (2, 1, 1),
        ]
        assert [p.parts for p in down_set(Partition([0, 0]))] == [(0, 0)]

    def test_down_set_size_matches_enumeration(self):
        for m in range(1, 5):
            for mu in enumerate_up_to_weight(m, 7):
                assert down_set_size(mu) == len(down_set(mu)), mu

    def test_shape_budget(self):
        # a row of length r has r + 1 shapes below it; shapes are counted
        # as they are built, so a 20-digit row fails after SHAPE_BUDGET shapes
        assert len(down_set(row_shape(SHAPE_BUDGET - 1, 1))) == SHAPE_BUDGET
        assert len(enumerate_up_to_weight(1, SHAPE_BUDGET - 1)) == SHAPE_BUDGET
        for kappa in (row_shape(SHAPE_BUDGET, 1), row_shape(10**20, 1), Partition([60, 50, 40])):
            with pytest.raises(ShapeLimitError):
                down_set(kappa)
        for m, t in ((1, SHAPE_BUDGET), (2, 10**8), (4, 10**8)):
            with pytest.raises(ShapeLimitError):
                enumerate_up_to_weight(m, t)

    @given(st.lists(st.integers(0, 7), min_size=1, max_size=5))
    def test_down_set_is_the_shapes_below(self, parts):
        kappa = Partition(sorted(parts, reverse=True))
        below = [s for s in enumerate_up_to_weight(kappa.m, kappa.weight) if s <= kappa]
        ds = down_set(kappa)
        assert ds == below
        assert len(ds) == down_set_size(kappa)

    @given(st.integers(1, 5), st.integers(0, 9))
    def test_enumeration_matches_brute_force(self, m, t):
        brute = [Partition(p) for p in combinations_with_replacement(range(t, -1, -1), m) if sum(p) <= t]
        brute.sort(key=Partition.sort_key)
        assert enumerate_up_to_weight(m, t) == brute

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=6))
    def test_built_shapes_equal_validated_ones(self, parts):
        # the builder's shapes skip validation; each is the shape that
        # public construction makes of the same parts
        for shape in down_set(Partition(sorted(parts, reverse=True))):
            checked = Partition(shape.parts)
            assert shape == checked and hash(shape) == hash(checked)
            assert type(shape.parts) is tuple and all(type(p) is int for p in shape.parts)
        with pytest.raises(ValueError, match="weakly decreasing"):
            Partition(sorted(parts) + [6])
        with pytest.raises(ValueError, match="negative"):
            Partition(parts + [-1])

    @pytest.mark.parametrize(
        "parts",
        [(10**2200, 10**2200), (100,) * 64, (3,) * 64, (SHAPE_BUDGET,)],
        ids=["two-huge-parts", "hundreds-at-rank-64", "threes-at-rank-64", "row-past-budget"],
    )
    def test_budget_exit_is_quick(self, parts):
        # the builder stops at the shape past the budget, whatever the
        # size of the whole down-set
        kappa = Partition(parts)
        started = time.perf_counter()
        with pytest.raises(ShapeLimitError) as err:
            down_set(kappa)
        assert time.perf_counter() - started < 1
        assert str(err.value) == f"the shapes below {parts} exceed the budget of {SHAPE_BUDGET}"

    def test_enumeration_budget_message(self):
        with pytest.raises(ShapeLimitError) as err:
            enumerate_up_to_weight(2, 10**8)
        assert str(err.value) == f"more than {SHAPE_BUDGET} shapes of weight <= {10**8} with at most 2 parts"

    def test_containment_partial_order(self):
        shapes = enumerate_up_to_weight(3, 4)
        for a in shapes:
            assert a <= a
            for b in shapes:
                if a <= b and b <= a:
                    assert a == b
                for c in shapes:
                    if a <= b and b <= c:
                        assert a <= c

    def test_descending_grid(self):
        # integer numerators over the depth: y = k / 4
        pts = list(descending_grid(2, 4))
        assert len(pts) == len(set(pts)) == 15  # multisets of size 2 from 5 levels
        for k in pts:
            assert all(type(v) is int for v in k)
            assert 4 >= k[0] >= k[1] >= 0
        assert pts[0] == (4, 4) and pts[-1] == (0, 0)
