"""Symmetric polynomial evaluation against brute-force oracles."""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grassdesign.exactlinalg import det
from grassdesign.partitions import Partition, binom, column_shape, enumerate_up_to_weight, row_shape
from grassdesign.scalars import rational
from grassdesign.symfunc import (
    SchurExpansion,
    normalized_schur_batch,
    normalized_schur_eval,
    schur_eval,
    schur_norm,
)

from closed_forms import pieri_e1
from exact_oracles import complete_eval, elementary_all, elementary_eval, prepare_point


def schur_eval_giambelli(mu, y):
    """Dual determinant det(e_{mu'_i - i + j}); cross-check for schur_eval."""
    vals, exact = prepare_point(y)
    conj = mu.conjugate()
    ell = conj.length_index()
    if ell == 0:
        return rational(1) if exact else 1.0
    m = len(vals)
    top = min(conj.parts[0] + ell - 1, m)
    e = elementary_all(vals, top)
    zero = rational(0) if exact else 0.0

    def e_at(k):
        if k == 0:
            return e[0]
        return e[k] if 0 < k <= m else zero

    rows = [[e_at(conj.parts[i] - (i + 1) + (j + 1)) for j in range(ell)] for i in range(ell)]
    return det(rows)


def schur_eval_bialternant(mu, y):
    """Quotient of alternants; requires pairwise distinct coordinates."""
    vals, _ = prepare_point(y)
    m = len(vals)
    if mu.m != m:
        raise ValueError(f"partition ambient {mu.m} vs point length {m}")
    if len(set(vals)) != m:
        raise ValueError("bialternant undefined at repeated coordinates")
    num = [[vals[i] ** (mu.parts[j] + m - (j + 1)) for j in range(m)] for i in range(m)]
    den = [[vals[i] ** (m - (j + 1)) for j in range(m)] for i in range(m)]
    return det(num) / det(den)


def prod(vals):
    out = 1
    for v in vals:
        out = out * v
    return out


def brute_elementary(i, y):
    if i > len(y):
        return 0
    return sum(prod(sel) for sel in combinations(y, i))


def brute_complete(i, y):
    return sum(prod(sel) for sel in combinations_with_replacement(y, i))


def rational_points(m, count, seed):
    rng = random.Random(seed)
    return [
        tuple(rational(rng.randint(1, 60), rng.randint(61, 120)) for _ in range(m))
        for _ in range(count)
    ]


def distinct_rational_points(m, count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        pt = tuple(rational(rng.randint(1, 400), 401) for _ in range(m))
        if len(set(pt)) == m:
            out.append(pt)
    return out


class TestElementaryComplete:
    def test_elementary_examples(self):
        assert elementary_eval(2, (1, 1)) == 1
        assert elementary_eval(1, (1,) * 7) == 7
        assert elementary_eval(2, (2, 1, 3)) == 11
        assert brute_elementary(2, (2, 1, 3)) == 11
        assert elementary_eval(0, (5, 5)) == 1

    def test_elementary_above_variable_count_is_zero(self):
        assert elementary_eval(3, (1, 1)) == 0
        assert elementary_eval(5, (0.5, 0.5)) == 0.0

    def test_complete_examples(self):
        assert complete_eval(2, (2, 1)) == 7
        assert brute_complete(2, (2, 1)) == 7
        assert complete_eval(0, (9,)) == 1
        assert complete_eval(3, (1, 1)) == 4
        assert brute_complete(3, (1, 1)) == 4

    def test_against_brute_force_at_random_points(self):
        for pt in rational_points(3, 10, seed=2):
            for i in range(0, 5):
                assert elementary_eval(i, pt) == brute_elementary(i, pt)
                assert complete_eval(i, pt) == brute_complete(i, pt)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            elementary_eval(-1, (1, 2))
        with pytest.raises(ValueError):
            complete_eval(-2, (1, 2))


class TestSchur:
    def test_special_shapes_reduce_to_e_and_h(self):
        for pt in rational_points(3, 6, seed=3):
            for i in range(0, 4):
                assert schur_eval(column_shape(i, 3), pt) == elementary_eval(i, pt)
                assert schur_eval(row_shape(i, 3), pt) == complete_eval(i, pt)

    def test_hook_at_ones(self):
        # for two variables the height-two hook evaluates e_2 e_1 - e_3
        assert schur_eval(Partition([2, 1]), (1, 1)) == 2

    def test_zero_shape_is_constant_one(self):
        assert schur_eval(Partition([0, 0]), (rational(1, 3), rational(1, 7))) == 1

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError):
            schur_eval(Partition([1, 0]), (1, 2, 3))

    def test_jacobi_trudi_equals_giambelli(self):
        per_m = {m: rational_points(m, 50, seed=10 + m) for m in range(1, 5)}
        for m, pts in per_m.items():
            shapes = enumerate_up_to_weight(m, 5)
            for pt in pts:
                for mu in shapes:
                    assert schur_eval(mu, pt) == schur_eval_giambelli(mu, pt), (mu, pt)

    def test_bialternant_agrees_at_distinct_points(self):
        for m in range(1, 5):
            shapes = enumerate_up_to_weight(m, 5)
            for pt in distinct_rational_points(m, 50, seed=20 + m):
                for mu in shapes:
                    assert schur_eval(mu, pt) == schur_eval_bialternant(mu, pt)

    def test_bialternant_rejects_repeated_coordinates(self):
        with pytest.raises(ValueError):
            schur_eval_bialternant(Partition([1, 0]), (rational(1, 2), rational(1, 2)))

    def test_symmetry_under_coordinate_permutations(self):
        rng = random.Random(5)
        for _ in range(20):
            m = rng.randint(2, 4)
            pt = tuple(rational(rng.randint(0, 30), 31) for _ in range(m))
            perm = list(range(m))
            rng.shuffle(perm)
            shuffled = tuple(pt[k] for k in perm)
            for mu in enumerate_up_to_weight(m, 4):
                assert schur_eval(mu, pt) == schur_eval(mu, shuffled)

    def test_float_path_tracks_exact(self):
        for mu in enumerate_up_to_weight(3, 4):
            exact_pt = (rational(9, 10), rational(1, 2), rational(1, 10))
            float_pt = tuple(float(v) for v in exact_pt)
            assert abs(schur_eval(mu, float_pt) - float(schur_eval(mu, exact_pt))) < 1e-12


class TestSchurNorm:
    def test_examples(self):
        assert schur_norm(Partition([0, 0, 0])) == 1
        for m in range(1, 6):
            for i in range(0, m + 1):
                assert schur_norm(column_shape(i, m)) == binom(m, i)
        for m in range(2, 6):
            for i in range(1, m + 1):
                hook = Partition((2,) + (1,) * (i - 1), m=m)
                assert schur_norm(hook) == i * binom(m + 1, i + 1)

    def test_matches_evaluation_at_ones(self):
        for m in range(1, 5):
            ones = (1,) * m
            for mu in enumerate_up_to_weight(m, 6):
                assert schur_norm(mu) == schur_eval(mu, ones)
                assert normalized_schur_eval(mu, ones) == 1

    def test_strictly_positive(self):
        for m in range(1, 5):
            for mu in enumerate_up_to_weight(m, 6):
                assert schur_norm(mu) > 0


class TestNormalizedSchur:
    def test_degree_one_is_coordinate_average(self):
        for pt in rational_points(3, 5, seed=8):
            assert normalized_schur_eval(column_shape(1, 3), pt) == sum(pt) / 3

    def test_top_column_is_coordinate_product(self):
        for pt in rational_points(3, 5, seed=9):
            assert normalized_schur_eval(column_shape(3, 3), pt) == prod(pt)


@st.composite
def mixed_points(draw, m, coordinate):
    """Points of length m with exact 0s and 1s and repeated coordinates."""
    vals = []
    for _ in range(m):
        if vals and draw(st.booleans()):
            vals.append(draw(st.sampled_from(vals)))
        else:
            vals.append(draw(st.one_of(st.sampled_from([0, 1]), coordinate)))
    return tuple(vals)


FLOAT_COORDINATES = st.floats(0.0, 1.0)
# ints and rationals of either sign, denominators up to 10^4
EXACT_COORDINATES = st.one_of(
    st.integers(-3, 3),
    st.integers(1, 10_000).flatmap(lambda q: st.integers(-2 * q, 2 * q).map(lambda p: rational(p, q))),
)


class TestNormalizedSchurBatch:
    """The one evaluator against the dual Jacobi-Trudi (Giambelli) oracle."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), m=st.integers(1, 4))
    def test_matches_scalar_evaluation(self, data, m):
        points = data.draw(
            st.lists(mixed_points(m, FLOAT_COORDINATES), min_size=1, max_size=6)
        )
        points = [tuple(float(v) for v in y) for y in points]
        shapes = enumerate_up_to_weight(m, 5)
        batch = normalized_schur_batch(shapes, np.array(points))
        assert batch.shape == (len(shapes), len(points))
        assert batch.dtype == float
        for r, mu in enumerate(shapes):
            for c, y in enumerate(points):
                want = schur_eval_giambelli(mu, y) / float(schur_norm(mu))
                assert abs(batch[r, c] - want) <= 1e-12, (mu, y)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), m=st.integers(1, 4))
    def test_exact_points_match_exactly(self, data, m):
        points = data.draw(
            st.lists(mixed_points(m, EXACT_COORDINATES), min_size=1, max_size=4)
        )
        shapes = enumerate_up_to_weight(m, 5)
        batch = normalized_schur_batch(shapes, points)
        assert batch.shape == (len(shapes), len(points))
        assert batch.dtype == object
        for r, mu in enumerate(shapes):
            for c, y in enumerate(points):
                assert type(batch[r, c]) is Fraction
                assert batch[r, c] == schur_eval_giambelli(mu, y) / schur_norm(mu), (mu, y)

    def test_one_float_coordinate_switches_the_call_to_float(self):
        shapes = enumerate_up_to_weight(2, 3)
        exact = normalized_schur_batch(shapes, [(1, rational(1, 2)), (0, 1)])
        mixed = normalized_schur_batch(shapes, [(1, rational(1, 2)), (0, 1.0)])
        assert exact.dtype == object and mixed.dtype == float
        assert np.allclose(mixed, exact.astype(float), rtol=0, atol=1e-15)

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError):
            normalized_schur_batch([Partition([1, 0])], np.zeros((3, 3)))


class TestSchurExpansion:
    def test_zero_coefficients_dropped(self):
        e = SchurExpansion(2, [(Partition([1, 0]), rational(0))])
        assert not e.coeffs
        assert e.evaluate((rational(1, 2), rational(1, 3))) == 0

    def test_constant_expansion(self):
        e = SchurExpansion(2, [(Partition([0, 0]), rational(1))])
        assert e.evaluate((rational(2, 3), rational(1, 5))) == 1

    def test_product_expansion_evaluates(self):
        e = SchurExpansion(2, [(Partition([1, 1]), rational(1))])
        assert e.evaluate((rational(1, 2), rational(1, 3))) == rational(1, 6)

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SchurExpansion(3, [(Partition([1, 0]), rational(1))])

    def test_json_round_trip(self):
        e = SchurExpansion(
            2,
            [(Partition([2, 0]), rational(3, 4)), (Partition([1, 1]), rational(-1, 4))],
        )
        assert SchurExpansion.from_json(e.to_json()) == e

    def test_addition_merges_terms(self):
        a = SchurExpansion(2, [(Partition([1, 0]), rational(1, 2))])
        b = SchurExpansion(2, [(Partition([1, 0]), rational(-1, 2))])
        assert not (a + b).coeffs


class TestPieri:
    def test_two_variable_coefficients(self):
        e = pieri_e1(1, 2)
        assert e.coeff(Partition([2, 0])) == rational(3, 4)
        assert e.coeff(Partition([1, 1])) == rational(1, 4)

    def test_top_column_case_has_single_term(self):
        e = pieri_e1(2, 2)
        assert e.terms() == [(Partition([2, 1]), rational(1))]

    def test_all_ones_identity(self):
        for m in range(1, 5):
            for j in range(1, m + 1):
                assert pieri_e1(j, m).at_ones() == 1

    def test_matches_direct_product_at_random_points(self):
        rng = random.Random(13)
        for m in range(1, 5):
            for j in range(1, m + 1):
                e = pieri_e1(j, m)
                for _ in range(10):
                    pt = tuple(rational(rng.randint(0, 50), 51) for _ in range(m))
                    lhs = normalized_schur_eval(column_shape(1, m), pt) * normalized_schur_eval(
                        column_shape(j, m), pt
                    )
                    assert e.evaluate(pt) == lhs

    def test_range_check(self):
        with pytest.raises(ValueError):
            pieri_e1(0, 3)
        with pytest.raises(ValueError):
            pieri_e1(4, 3)


def test_prepare_point_modes():
    vals, exact = prepare_point((1, rational(1, 2)))
    assert exact and vals == (rational(1), rational(1, 2))
    vals, exact = prepare_point((1, 0.5))
    assert not exact and vals == (1.0, 0.5)
