"""Partition combinatorics: shapes, coefficients, binomial identity suite."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from grassdesign.partitions import (
    Partition,
    ascending,
    binom,
    column_shape,
    descending_grid,
    double_content_sum,
    down_set,
    enumerate_up_to_weight,
    hook_shape,
    hyper_coeff,
    increment_part,
    increment_set,
    row_shape,
)
from grassdesign.scalars import rational


def brute_binom(k: int, r: int):
    # product definition, the independent route
    num, den = 1, 1
    for i in range(r):
        num *= k - i
        den *= r - i
    return rational(num, den) if r else rational(1)


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

    def test_strict_equality_and_trim(self):
        assert Partition([1, 0]) != Partition([1])
        assert Partition([1, 0]).trimmed() == Partition([1]).trimmed()

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
        assert Partition([0, 0]).conjugate().trimmed() == ()
        assert Partition([3, 2]).conjugate().parts == (2, 2, 1)

    def test_involution_up_to_trailing_zeros(self):
        for m in range(1, 5):
            for mu in enumerate_up_to_weight(m, 5):
                if mu.parts and mu.parts[0] > m:
                    continue
                back = mu.conjugate().conjugate()
                assert back.trimmed() == mu.trimmed(), mu


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
        pts = list(descending_grid(2, 4))
        assert len(pts) == 15  # multisets of size 2 from 5 levels
        for y in pts:
            assert 1 >= y[0] >= y[1] >= 0
