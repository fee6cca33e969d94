"""Symmetric polynomial evaluation against brute-force oracles."""

import math
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grassdesign.partitions import Partition, binom, column_shape, enumerate_up_to_weight, row_shape
from grassdesign.scalars import rational
from grassdesign.symfunc import (
    SchurExpansion,
    ScaledPoints,
    _columns,
    _evaluate,
    _top_index,
    exact_schur_sum,
    normalized_schur_batch,
    normalized_schur_eval,
    schur_e_polynomial,
    schur_eval,
    schur_norm,
)

from closed_forms import pieri_e1
from exact_oracles import (
    complete_eval,
    det,
    elementary_all,
    elementary_eval,
    expansion_at_ones,
    expansion_values,
    invariant_columns,
    normalized_schur_at_invariants,
    prepare_point,
    row_values,
    scaled_rows,
    schur_jacobi_trudi,
)


def schur_eval_giambelli(mu, y):
    """Dual determinant det(e_{mu'_i - i + j}); cross-check for schur_eval."""
    vals, exact = prepare_point(y)
    m = len(vals)
    conj = mu.conjugate()
    top = min(conj.parts[0] + conj.length - 1, m)
    return dual_jacobi_trudi(mu, elementary_all(vals, top), rational(0) if exact else 0.0)


def dual_jacobi_trudi(mu, e, zero):
    """det(e_{mu'_i - i + j}) from e = (e_0, e_1, ..); e_k is zero past mu.m."""
    conj = mu.conjugate()
    ell = conj.length
    if ell == 0:
        return e[0]

    def e_at(k):
        return e[k] if 0 <= k <= mu.m else zero

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


# values of e_k, with denominators up to 60 drawn independently
INVARIANT_VALUES = st.integers(1, 60).flatmap(
    lambda q: st.integers(-3 * q, 3 * q).map(lambda p: rational(p, q))
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
        assert normalized_schur_batch([], points).shape == (0, len(points))
        for r, mu in enumerate(shapes):
            for c, y in enumerate(points):
                assert type(batch[r, c]) is Fraction
                assert batch[r, c] == schur_eval_giambelli(mu, y) / schur_norm(mu), (mu, y)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), m=st.integers(1, 4))
    def test_invariants_match_dual_jacobi_trudi(self, data, m):
        # arbitrary e-vectors, most of them the e_k of no rational point,
        # with denominators drawn independently of each other
        invariants = data.draw(st.lists(st.tuples(*[INVARIANT_VALUES] * m), min_size=1, max_size=4))
        shapes = enumerate_up_to_weight(m, 5)
        batch = normalized_schur_at_invariants(shapes, invariants)
        assert batch.shape == (len(shapes), len(invariants))
        assert normalized_schur_at_invariants([], invariants).shape == (0, len(invariants))
        for r, mu in enumerate(shapes):
            for c, e in enumerate(invariants):
                assert type(batch[r, c]) is Fraction
                want = dual_jacobi_trudi(mu, (rational(1),) + e, rational(0)) / schur_norm(mu)
                assert batch[r, c] == want, (mu, e)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), m=st.integers(1, 4))
    def test_invariants_of_points_match_points(self, data, m):
        points = data.draw(st.lists(mixed_points(m, EXACT_COORDINATES), min_size=1, max_size=4))
        invariants = [tuple(elementary_all(y, m)[1:]) for y in points]
        shapes = enumerate_up_to_weight(m, 5)
        assert (normalized_schur_at_invariants(shapes, invariants) == normalized_schur_batch(shapes, points)).all()

    def test_one_float_coordinate_switches_the_call_to_float(self):
        shapes = enumerate_up_to_weight(2, 3)
        exact = normalized_schur_batch(shapes, [(1, rational(1, 2)), (0, 1)])
        mixed = normalized_schur_batch(shapes, [(1, rational(1, 2)), (0, 1.0)])
        assert exact.dtype == object and mixed.dtype == float
        assert np.allclose(mixed, exact.astype(float), rtol=0, atol=1e-15)
        # the same at the points' invariants (3/2, 1/2) and (1, 0)
        for invariants in ([(rational(3, 2), rational(1, 2)), (1, 0.0)], np.array([[1.5, 0.5], [1, 0]])):
            floats = normalized_schur_at_invariants(shapes, invariants)
            assert floats.dtype == float
            assert np.allclose(floats, exact.astype(float), rtol=0, atol=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(sigma=st.integers(1, 5).flatmap(lambda m: st.sampled_from(enumerate_up_to_weight(m, 6))), data=st.data())
    def test_float_e_form_within_its_rounding_bound(self, sigma, data):
        # Dyadic coordinates are exact floats, so the exact h-form
        # determinant is the true value.  On [0, 1]^m, |e_k| <= C(m, k), so
        # the T terms c prod e_k^x of the e-polynomial are at most
        # R s_sigma(1) in total size, R = sum |c| prod C(m, k)^x / s_sigma(1).
        # Each e_k is a sum of nonnegative products, off by at most m eps
        # relatively; a monomial of degree d <= |sigma| by d (m + 1) eps;
        # the sum adds T eps of the term sizes and the normalization eps.
        m = sigma.m
        dyadic = st.integers(0, 1024).map(lambda p: rational(p, 1024))
        points = data.draw(st.lists(mixed_points(m, dyadic), min_size=1, max_size=40))
        got = normalized_schur_batch([sigma], np.array(points, dtype=float))[0]
        poly = schur_e_polynomial(sigma)
        norm = schur_norm(sigma)
        r = sum(abs(c) * math.prod(binom(m, k) ** x for k, x in enumerate(mono)) for mono, c in poly) / norm
        tol = float(r) * (len(poly) + sigma.weight * (m + 1) + 1) * np.finfo(float).eps
        for value, y in zip(got, points):
            want = schur_jacobi_trudi(sigma, elementary_all(y, m)) / norm
            assert abs(value - float(want)) <= tol, (sigma, y)

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError):
            normalized_schur_batch([Partition([1, 0])], np.zeros((3, 3)))

    def test_scaled_points_take_the_ambient_from_their_numerators(self):
        # an (a, d) pair has length 2 whatever the length of a
        points = ScaledPoints([([1, 1, 0], 2)])
        with pytest.raises(ValueError, match="partition ambient 2 vs point length 3"):
            normalized_schur_batch([Partition([1, 1])], points)
        shapes = [Partition([1, 1, 0]), Partition([2, 1, 0]), Partition([1, 1, 1])]
        batch = normalized_schur_batch(shapes, points)
        want = normalized_schur_batch(shapes, [points.point(0)])
        assert batch.tolist() == want.tolist() == [[rational(1, 12)], [rational(1, 32)], [0]]


COEFFICIENTS = st.builds(rational, st.integers(-50, 50), st.integers(1, 30))
SHAPES = st.integers(1, 5).flatmap(lambda m: st.sampled_from(enumerate_up_to_weight(m, 8)))


class TestSchurEPolynomial:
    """Each s_sigma expanded once in e_1 .. e_m, against both Jacobi-Trudi determinants."""

    @staticmethod
    def check(sigma, e):
        # e = (e_0, .., e_m) with e_0 = 1, rational entries
        value = _evaluate(schur_e_polynomial(sigma), e)
        assert value == schur_jacobi_trudi(sigma, e), (sigma, e)
        assert value == dual_jacobi_trudi(sigma, e, rational(0)), (sigma, e)
        return value

    @settings(max_examples=150, deadline=None)
    @given(sigma=SHAPES, data=st.data())
    def test_matches_jacobi_trudi_at_points(self, sigma, data):
        y = data.draw(mixed_points(sigma.m, EXACT_COORDINATES))
        value = self.check(sigma, elementary_all(y, sigma.m))
        # the integer core: s_sigma(a) = d^|sigma| s_sigma(y) at y = a/d, on
        # object-int columns (d, e_1(a), ..) that hold one entry per point;
        # at weight 1 the evaluator gives t = s_sigma(a) over q = d^|sigma|
        top = _top_index([sigma])
        columns, exact, _ = _columns([y], top)
        assert exact
        (row,) = scaled_rows([y], top)
        assert [c.tolist() for c in columns] == [[x] for x in row]
        t, q = exact_schur_sum([(sigma, 1)], columns)
        assert t.dtype == object and len(t) == 1
        assert q == row[0] ** sigma.weight
        assert t.tolist() == row_values(schur_e_polynomial(sigma), [row])
        assert t.tolist() == [row[0] ** sigma.weight * value]

    @settings(max_examples=150, deadline=None)
    @given(sigma=SHAPES, data=st.data())
    def test_matches_jacobi_trudi_at_invariants(self, sigma, data):
        invariant = data.draw(st.tuples(*[INVARIANT_VALUES] * sigma.m))
        value = self.check(sigma, (rational(1),) + invariant)
        columns, exact = invariant_columns([invariant])
        assert exact
        assert all(c.dtype == object and len(c) == 1 for c in columns)
        d = columns[0][0]
        t, q = exact_schur_sum([(sigma, 1)], columns)
        assert q == d**sigma.weight
        assert t.tolist() == [d**sigma.weight * value]

    def test_all_ones_gives_the_weyl_product(self):
        for m in range(1, 6):
            ones = [binom(m, k) for k in range(m + 1)]
            for sigma in enumerate_up_to_weight(m, 8):
                assert _evaluate(schur_e_polynomial(sigma), ones) == schur_norm(sigma), sigma

    def test_homogeneous_of_the_shape_weight(self):
        for m in range(1, 6):
            for sigma in enumerate_up_to_weight(m, 8):
                for mono, c in schur_e_polynomial(sigma):
                    assert c and mono[0] == 0 and len(mono) == m + 1
                    assert sum(k * x for k, x in enumerate(mono)) == sigma.weight

    def test_small_expansions(self):
        # s_(2) = e_1^2 - e_2, s_(2,1) = e_1 e_2 - e_3, s_(2,1,1) = e_1 e_3
        assert dict(schur_e_polynomial(row_shape(2, 3))) == {(0, 2, 0, 0): 1, (0, 0, 1, 0): -1}
        assert dict(schur_e_polynomial(Partition([2, 1, 0]))) == {(0, 1, 1, 0): 1, (0, 0, 0, 1): -1}
        assert dict(schur_e_polynomial(Partition([2, 1, 1]))) == {(0, 1, 0, 1): 1}
        assert dict(schur_e_polynomial(Partition([0, 0]))) == {(0, 0, 0): 1}

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), m=st.integers(1, 4))
    def test_weighted_sum_over_own_denominators_matches_oracle(self, data, m):
        # repeated shapes and the zero shape among the weights; every point
        # over its own d, so t is lifted to the lcm of the d_i^top
        shapes = st.sampled_from(enumerate_up_to_weight(m, 5))
        weighted = [(column_shape(0, m), data.draw(COEFFICIENTS))]
        weighted += data.draw(st.lists(st.tuples(shapes, COEFFICIENTS), max_size=6))
        points = data.draw(st.lists(mixed_points(m, EXACT_COORDINATES), min_size=1, max_size=5))
        columns, _, _ = _columns(points, _top_index([s for s, _ in weighted]))
        t, q = exact_schur_sum(weighted, columns)
        assert type(q) is int and q > 0
        assert t.dtype == object and all(type(x) is int for x in t)
        for x, y in zip(t, points):
            e = elementary_all(y, m)
            want = sum((w * schur_jacobi_trudi(sigma, e) for sigma, w in weighted), rational(0))
            assert rational(x, q) == want, y


def expansions(m):
    """Expansions over shapes of weight at most 4: empty, constant-only or drawn."""
    shapes = enumerate_up_to_weight(m, 4)
    return st.one_of(
        st.just(SchurExpansion(m)),
        COEFFICIENTS.map(lambda c: SchurExpansion(m, [(column_shape(0, m), c)])),
        st.lists(st.tuples(st.sampled_from(shapes), COEFFICIENTS), max_size=8).map(
            lambda terms: SchurExpansion(m, terms)
        ),
    )


def scaled_draws(m, d):
    """Descending integer points over d, as (a, d) entries of ScaledPoints."""
    return st.lists(st.integers(0, d), min_size=m, max_size=m).map(lambda a: (sorted(a, reverse=True), d))


class TestSchurExpansion:
    def test_zero_coefficients_dropped(self):
        e = SchurExpansion(2, [(Partition([1, 0]), rational(0))])
        assert not e.coeffs
        assert e.evaluate((rational(1, 2), rational(1, 3))) == 0

    def test_zero_expansion_follows_the_point_mode(self):
        # one float entry makes the evaluation float, even with no term to sum
        zero = SchurExpansion(2)
        for value in (zero.evaluate((0.5, 0.2)), *zero.evaluate_batch(np.array([[0.5, 0.2], [1.0, 0.0]]))):
            assert type(value) is float and value == 0.0
        for value in (zero.evaluate((rational(1, 2), rational(1, 5))), *zero.evaluate_batch([(1, 0), (2, 1)])):
            assert type(value) is Fraction and value == 0

    def test_constant_expansion(self):
        e = SchurExpansion(2, [(Partition([0, 0]), rational(1))])
        assert e.evaluate((rational(2, 3), rational(1, 5))) == 1

    def test_product_expansion_evaluates(self):
        e = SchurExpansion(2, [(Partition([1, 1]), rational(1))])
        assert e.evaluate((rational(1, 2), rational(1, 3))) == rational(1, 6)

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SchurExpansion(3, [(Partition([1, 0]), rational(1))])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), m=st.integers(1, 4))
    def test_evaluate_batch_matches_term_sum(self, data, m):
        # shapes of every weight up to 4, so the common denominator lifts
        # each term by its own power of d
        shapes = enumerate_up_to_weight(m, 4)
        coeffs = data.draw(st.lists(COEFFICIENTS, min_size=len(shapes), max_size=len(shapes)))
        expansion = SchurExpansion(m, zip(shapes, coeffs))
        points = data.draw(st.lists(mixed_points(m, EXACT_COORDINATES), min_size=1, max_size=4))
        values = expansion.evaluate_batch(points)
        for y, value in zip(points, values):
            want = sum(
                (c * schur_eval_giambelli(s, y) / schur_norm(s) for s, c in expansion.coeffs.items()),
                rational(0),
            )
            assert type(value) is Fraction and value == want, y

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), m=st.integers(1, 4), depth=st.integers(1, 12))
    def test_numerators_over_mixed_denominators_match_row_oracle(self, data, m, depth):
        # grid points over d = depth and samples over d = 10,000 in one chunk:
        # each point is lifted to the lcm of the chunk's denominators
        expansion = data.draw(expansions(m))
        chunk = data.draw(st.lists(st.one_of(scaled_draws(m, depth), scaled_draws(m, 10_000)), min_size=1, max_size=12))
        chunk = ScaledPoints(chunk)
        top = _top_index(list(expansion.coeffs))
        columns, exact, _ = _columns(chunk, top)
        assert exact
        assert [c.tolist() for c in columns] == [list(col) for col in zip(*scaled_rows(chunk, top))]
        t, q = expansion.numerators(chunk)
        assert type(q) is int and q > 0
        assert t.dtype == object and len(t) == len(chunk)
        assert all(type(x) is int for x in t)
        want = expansion_values(expansion, chunk)
        assert [rational(x, q) for x in t] == want
        assert expansion.evaluate_batch(chunk) == want
        # the same points as Fraction tuples, d the lcm of each point's denominators
        t, q = expansion.numerators([chunk.point(i) for i in range(len(chunk))])
        assert [rational(x, q) for x in t] == want

    @pytest.mark.parametrize("kind", ["exact", "scaled", "float"])
    def test_wrong_length_and_ragged_points_raise(self, kind):
        expansion = SchurExpansion(2, {Partition([1, 0]): 1, Partition([1, 1]): rational(1, 3)})

        def points(*rows):
            if kind == "scaled":
                return ScaledPoints([([3 * x for x in row], 3) for row in rows])
            return [tuple(rational(x, 3) if kind == "exact" else x / 3 for x in row) for row in rows]

        wrong, ragged = points((1, 2, 1), (2, 1, 1)), points((1, 2), (2, 1, 1), (1, 1))
        for call in (expansion.evaluate_batch, expansion.numerators):
            for bad in (wrong, ragged):
                with pytest.raises(ValueError, match="point length 3 vs ambient 2"):
                    call(bad)
        # with no ambient to compare against, ragged points are no (N, m) array
        with pytest.raises(ValueError, match=r"points must be an \(N, m\) array"):
            normalized_schur_batch([Partition([1, 0])], ragged)
        # points of the ambient length pass
        assert len(expansion.evaluate_batch(points((1, 2), (2, 1)))) == 2

    def test_numerators_need_exact_points(self):
        with pytest.raises(ValueError):
            SchurExpansion(2, {Partition([1, 0]): 1}).numerators([(0.5, 0.25)])

    def test_json_round_trip(self):
        e = SchurExpansion(
            2,
            [(Partition([2, 0]), rational(3, 4)), (Partition([1, 1]), rational(-1, 4))],
        )
        assert SchurExpansion.from_json(e.to_json()) == e

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"m": 2.7, "terms": []}, "not an integer: 2.7"),
            ({"m": True, "terms": []}, "not an integer: True"),
            ({"m": 2, "terms": [{"partition": [1.5], "coeff": "1"}]}, "not an integer: 1.5"),
        ],
    )
    def test_json_refuses_non_integers(self, data, message):
        # int() would read m = 2.7 as 2 and the part 1.5 as 1
        with pytest.raises(ValueError) as err:
            SchurExpansion.from_json(data)
        assert str(err.value) == message

    def test_addition_merges_terms(self):
        a = SchurExpansion(2, [(Partition([1, 0]), rational(1, 2))])
        b = SchurExpansion(2, [(Partition([1, 0]), rational(-1, 2))])
        assert not (a + b).coeffs

    def test_repeated_shapes_keep_first_seen_order_and_drop_zero_sums(self):
        # float evaluation sums the terms in this order
        one, two, pair, top = (Partition(p) for p in ([1, 0], [2, 0], [1, 1], [2, 1]))
        e = SchurExpansion(
            2,
            [
                (one, rational(1, 2)),
                (two, rational(1, 3)),
                (pair, rational(1)),
                (one, rational(1, 6)),  # sums to 2/3, keeps its place
                (two, rational(-1, 3)),  # cancels, so (2, 0) is dropped
                (top, 2),
                (pair, rational(-1)),  # cancels too
                (two, rational(5)),  # enters again, after (2, 1)
                (pair, rational(0)),  # a zero coefficient is never stored
            ],
        )
        assert list(e.coeffs.items()) == [(one, rational(2, 3)), (top, rational(2)), (two, rational(5))]
        assert all(type(c) is Fraction for c in e.coeffs.values())

    def test_at_ones_is_the_coefficient_sum(self):
        e = SchurExpansion(2, [(Partition([1, 0]), rational(1, 6)), (Partition([1, 1]), rational(-3, 4)), (Partition([2, 1]), 2)])
        assert expansion_at_ones(e) == rational(1, 6) - rational(3, 4) + 2
        assert type(expansion_at_ones(e)) is Fraction
        assert expansion_at_ones(SchurExpansion(2)) == 0


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
                assert expansion_at_ones(pieri_e1(j, m)) == 1

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
