"""Subspace geometry: angles, symmetries, antipodality, configurations."""

import json
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grassdesign import pairbatch
from grassdesign.designs import is_T_design, parse_family
from grassdesign.grassmann import (
    EXACT,
    FLOAT,
    IrrationalAnglesError,
    RankDeficiencyError,
    SubspaceConfiguration,
    SubspacePoint,
    _pair_indices,
    coordinate_subspace,
    great_antipodal,
    invariant_angles,
    six_point_config,
)
from grassdesign.partitions import binom
from grassdesign.scalars import rational

from exact_oracles import (
    angle_matrix_lookup,
    elementary_all,
    float_antipodal,
    float_point,
    is_antipodal_pair,
    orthogonal_complement,
    pair_indices_oracle,
    pair_invariants,
    principal_angles,
    recombined,
    same_subspace,
    symmetry_image,
)
from seeded_configs import orthogonal_split_config, random_subspace
from test_cli import disguised_great_antipodal

HALF = rational(1, 2)


def exact_point(rows):
    return SubspacePoint(rows, mode=EXACT)


class TestSubspacePoint:
    def test_rank_validation_exact(self):
        with pytest.raises(RankDeficiencyError):
            exact_point([["1", "0", "0", "0"], ["2", "0", "0", "0"]])

    def test_rank_validation_float(self):
        with pytest.raises(RankDeficiencyError):
            SubspacePoint([[1.0, 0, 0, 0], [1.0, 1e-14, 0, 0]], mode=FLOAT)
        with pytest.raises(RankDeficiencyError):
            SubspacePoint(np.zeros((2, 4)), mode=FLOAT)

    def test_float_array_input_is_validated(self):
        # the checks of list input: finite entries, numbers only
        for bad in (np.inf, np.nan):
            basis = np.array([[1.0, bad, 0.0, 0.0]])
            with pytest.raises(ValueError, match="not all finite"):
                SubspacePoint(basis, mode=FLOAT)
        with pytest.raises(ValueError, match="dtype"):
            SubspacePoint(np.array([[True, False, False, False]]), mode=FLOAT)
        point = random_subspace(2, 4, seed=3)
        with pytest.raises(ValueError, match="not all finite"):
            recombined(point, [[np.nan, 0], [0, 1]])
        assert recombined(point, np.array([[1, 2], [0, 1]])).m == 2

    def test_float_frame_is_orthonormal_basis(self):
        p = random_subspace(3, 7, seed=5)
        q = p.frame
        assert q.shape == (7, 3)
        assert np.allclose(q.conj().T @ q, np.eye(3), atol=1e-12)
        # every basis row lies in the span of the frame columns
        rows = p.basis.T
        assert np.allclose(q @ (q.conj().T @ rows), rows, atol=1e-12)
        assert coordinate_subspace([0, 1], 4).frame is None

    def test_exact_json_round_trip(self):
        p = six_point_config()[4]
        data = p.to_json()
        assert data["rows"][0][1] == "0+1*i"
        q = SubspacePoint(data["rows"], mode=EXACT)
        assert same_subspace(q, p)

    def test_mode_mismatch_rejected(self):
        a = coordinate_subspace([0, 1], 4)
        b = float_point(a)
        with pytest.raises(ValueError):
            principal_angles(a, b)


class TestPrincipalAngles:
    def test_self_is_all_ones(self):
        a = coordinate_subspace([0, 2], 4)
        assert principal_angles(a, a) == (1, 1)

    def test_orthogonal_is_all_zeros(self):
        a = coordinate_subspace([0, 1], 4)
        b = coordinate_subspace([2, 3], 4)
        assert principal_angles(a, b) == (0, 0)

    def test_half_angle_pair(self):
        x = six_point_config()
        assert principal_angles(x[2], x[4]) == (HALF, 0)

    def test_symmetric_in_arguments(self):
        x = six_point_config()
        for i in range(6):
            for j in range(6):
                assert principal_angles(x[i], x[j]) == principal_angles(x[j], x[i])

    def test_basis_invariance_exact(self):
        x = six_point_config()[4]
        moved = recombined(x, [["1", "1/2"], ["0", "1/3"]])
        for other in six_point_config():
            assert principal_angles(x, other) == principal_angles(moved, other)

    def test_basis_invariance_float(self):
        rng = np.random.default_rng(8)
        a = random_subspace(2, 6, seed=1)
        b = random_subspace(2, 6, seed=2)
        coeffs = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a2 = recombined(a, coeffs)
        ya = principal_angles(a, b)
        yb = principal_angles(a2, b)
        assert max(abs(u - v) for u, v in zip(ya, yb)) < 1e-10

    def test_unitary_invariance_float(self):
        rng = np.random.default_rng(21)
        z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        q, _ = np.linalg.qr(z)
        a = random_subspace(2, 6, seed=5)
        b = random_subspace(2, 6, seed=6)
        ga = SubspacePoint(a.basis @ q.T, mode=FLOAT)
        gb = SubspacePoint(b.basis @ q.T, mode=FLOAT)
        ya = principal_angles(a, b)
        yg = principal_angles(ga, gb)
        assert max(abs(u - v) for u, v in zip(ya, yg)) < 1e-10

    def test_irrational_spectrum_is_an_error(self):
        # a line at 30 degrees to the axis has angle value 3/4 with it,
        # but mixing a transcendental-free irrational entry forces an
        # unsplittable characteristic polynomial
        a = exact_point([["1", "0", "0", "0"], ["0", "1", "1", "0"]])
        b = exact_point([["1", "1", "0", "0"], ["0", "0", "1", "1"]])
        with pytest.raises(IrrationalAnglesError):
            principal_angles(a, b)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_invariant_angles_recover_rational_spectra(self, data):
        den = data.draw(st.integers(1, 2**64))
        values = data.draw(st.lists(st.integers(0, den), min_size=1, max_size=6))
        values += data.draw(st.lists(st.sampled_from(values), max_size=6 - len(values)))
        angles = [rational(k, den) for k in values]
        e = elementary_all(angles, len(angles))
        assert invariant_angles(tuple(e[1:])) == tuple(sorted(angles, reverse=True))
        # a factor x^2 - x + 1/5, of the irrational roots (1 +- 5^(-1/2)) / 2
        descending = [(-1) ** k * v for k, v in enumerate(e)]
        product = [0] * (len(descending) + 2)
        for i, c in enumerate(descending):
            for j, f in enumerate((1, -1, rational(1, 5))):
                product[i + j] += c * f
        with pytest.raises(IrrationalAnglesError):
            invariant_angles(tuple((-1) ** k * v for k, v in enumerate(product[1:], 1)))

    def test_float_agrees_with_exact_on_six_points(self):
        x = six_point_config()
        xf = x.to_float()
        for i in range(6):
            for j in range(6):
                ye = principal_angles(x[i], x[j])
                yf = principal_angles(xf[i], xf[j])
                assert max(abs(float(u) - v) for u, v in zip(ye, yf)) < 1e-12

    @pytest.mark.parametrize("m, n", [(2, 6), (3, 8)])
    def test_float_pair_table_matches_per_pair_angles(self, m, n):
        config = SubspaceConfiguration([random_subspace(m, n, seed=s) for s in range(12)])
        table = config.pair_angles()
        assert len(table) == 12 * 13 // 2
        for (i, j), y in table.items():
            want = principal_angles(config[i], config[j])
            assert len(y) == m and max(abs(a - b) for a, b in zip(y, want)) <= 1e-14


class TestSymmetry:
    def test_fixes_base_point(self):
        a = coordinate_subspace([0, 3], 5)
        assert same_subspace(symmetry_image(a, a), a)

    def test_fixes_coordinate_subspaces(self):
        pts = great_antipodal(2, 5)
        for a in pts:
            for b in pts:
                assert same_subspace(symmetry_image(a, b), b)

    def test_involution(self):
        a = coordinate_subspace([0, 1], 4)
        b = six_point_config()[4]
        image = symmetry_image(a, b)
        assert same_subspace(symmetry_image(a, image), b)

    def test_moves_non_antipodal_pairs(self):
        x = six_point_config()
        assert not same_subspace(symmetry_image(x[2], x[4]), x[4])

    def test_float_mode(self):
        a = random_subspace(2, 4, seed=11)
        b = random_subspace(2, 4, seed=12)
        image = symmetry_image(a, b)
        back = symmetry_image(a, image)
        assert same_subspace(back, b)

    def test_complement_is_fixed_and_orthogonal(self):
        a = coordinate_subspace([0, 1], 4)
        comp = orthogonal_complement(a)
        assert comp.m == 2
        assert principal_angles(a, comp) == (0, 0)
        assert same_subspace(symmetry_image(a, comp), comp)


class TestAntipodality:
    def test_pairs(self):
        for m, n in ((2, 4), (2, 5)):
            s = great_antipodal(m, n)
            assert all(is_antipodal_pair(a, b) for a in s for b in s)
        x = six_point_config()
        assert not is_antipodal_pair(x[2], x[4])
        assert is_antipodal_pair(x[0], x[0])

    def test_float_tolerance(self):
        s = great_antipodal(2, 4).to_float()
        assert all(is_antipodal_pair(a, b, tol=1e-10) for a in s for b in s)
        r = random_subspace(2, 4, seed=3)
        r2 = random_subspace(2, 4, seed=4)
        assert not is_antipodal_pair(r, r2, tol=1e-6)


class TestConfigurations:
    def test_great_antipodal_sizes(self):
        for m, n in ((1, 2), (2, 4), (2, 5), (3, 6)):
            s = great_antipodal(m, n)
            assert len(s) == binom(n, m)
        with pytest.raises(ValueError):
            great_antipodal(2, 3)

    @pytest.mark.parametrize(
        "m, n", [(m, n) for m in (1, 2, 3) for n in range(2 * m, 2 * m + 3)] + [(4, 8)]
    )
    def test_great_antipodal_pair_table_is_johnson_scheme(self, m, n):
        # coordinate sets I, J with |I & J| = k have angles (1^k, 0^(m-k)),
        # and C(n,m) C(m,k) C(n-m,m-k) ordered pairs meet in k coordinates
        s = great_antipodal(m, n)
        subsets = [set(c) for c in combinations(range(n), m)]
        for (i, j), y in s.pair_angles().items():
            k = len(subsets[i] & subsets[j])
            assert y == (1,) * k + (0,) * (m - k)
        expected = {
            (1,) * k + (0,) * (m - k): binom(n, m) * binom(m, k) * binom(n - m, m - k)
            for k in range(m + 1)
        }
        assert s.angle_classes() == expected

    def test_great_antipodal_on_projective_line(self):
        s = great_antipodal(1, 2)
        assert len(s) == 2
        assert principal_angles(s[0], s[1]) == (0,)

    def test_orthogonal_split(self):
        o = orthogonal_split_config(2, 4)
        assert len(o) == 2
        assert principal_angles(o[0], o[1]) == (0, 0)
        assert same_subspace(o[0], coordinate_subspace([0, 1], 4))
        with pytest.raises(ValueError):
            orthogonal_split_config(2, 5)

    def test_six_point_angle_matrix(self):
        x = six_point_config()
        mat = x.angle_matrix()
        ONE2 = (rational(1), rational(1))
        ZERO2 = (rational(0), rational(0))
        TEN = (rational(1), rational(0))
        HZ = (HALF, rational(0))
        expected = [
            [ONE2, ZERO2, TEN, TEN, TEN, TEN],
            [ZERO2, ONE2, TEN, TEN, TEN, TEN],
            [TEN, TEN, ONE2, TEN, HZ, HZ],
            [TEN, TEN, TEN, ONE2, HZ, HZ],
            [TEN, TEN, HZ, HZ, ONE2, TEN],
            [TEN, TEN, HZ, HZ, TEN, ONE2],
        ]
        assert [[tuple(y) for y in row] for row in mat] == expected

    def test_six_point_last_angles_vanish(self):
        x = six_point_config()
        mat = x.angle_matrix()
        for i in range(6):
            for j in range(6):
                if i != j:
                    assert mat[i][j][1] == 0

    def test_six_point_splits_into_two_antipodal_groups(self):
        x = six_point_config()
        for group in ([0, 1, 2, 3], [4, 5]):
            for i in group:
                for j in group:
                    assert is_antipodal_pair(x[i], x[j])

    def test_angle_class_counts(self):
        s = great_antipodal(2, 4)
        classes = s.angle_classes()
        assert sum(classes.values()) == 36
        assert classes[(rational(1), rational(1))] == 6
        assert classes[(rational(0), rational(0))] == 6
        assert classes[(rational(1), rational(0))] == 24

    def test_mixed_modes_rejected(self):
        a = coordinate_subspace([0, 1], 4)
        with pytest.raises(ValueError):
            SubspaceConfiguration([a, float_point(a)])

    def test_json_round_trip_exact(self):
        x = six_point_config()
        data = json.loads(json.dumps(x.to_json()))
        back = SubspaceConfiguration.from_json(data)
        assert back.mode == EXACT and len(back) == 6
        assert back.angle_matrix() == x.angle_matrix()

    def test_json_round_trip_float(self):
        pts = [random_subspace(2, 4, seed=k) for k in range(3)]
        config = SubspaceConfiguration(pts, label="floaty")
        data = json.loads(json.dumps(config.to_json()))
        back = SubspaceConfiguration.from_json(data)
        assert back.mode == FLOAT
        ya = config.angle_matrix()
        yb = back.angle_matrix()
        for i in range(3):
            for j in range(3):
                assert max(abs(u - v) for u, v in zip(ya[i][j], yb[i][j])) < 1e-12


def float_random_config(m, n, size):
    return SubspaceConfiguration([random_subspace(m, n, seed=s) for s in range(size)])


class TestFloatPairLayer:
    """Float pairs from chunked cross-Grams: invariants by Newton's identities, angles by SVD."""

    @pytest.mark.parametrize("m, n", [(2, 6), (3, 8)])
    def test_results_identical_across_chunk_sizes(self, monkeypatch, m, n):
        size = 15
        config = float_random_config(m, n, size)
        family = parse_family("T4", m)
        defects = [e.defect for e in is_T_design(config, family).entries]
        invariants, weights = config.invariant_weights()
        angles = config.pair_angles()
        # one point per chunk, blocks of 3 to 5 points, and all at once
        for elements, chunks in ((1, size), (m * m * size * 3, 4), (m * m * size * size, 1)):
            monkeypatch.setattr(pairbatch, "PAIR_CHUNK_ELEMENTS", elements)
            again = float_random_config(m, n, size)
            assert len(list(again._float_grams(*np.triu_indices(size)))) == chunks
            assert [e.defect for e in is_T_design(again, family).entries] == defects
            got, got_weights = again.invariant_weights()
            assert np.array_equal(got, invariants) and np.array_equal(got_weights, weights)
            assert again.pair_angles() == angles

    def test_pair_indices_equal_the_generator_form(self):
        for k in range(65):
            got, want = _pair_indices(k), pair_indices_oracle(k)
            for a, b in zip(got, want):
                assert a.dtype == np.int64 and np.array_equal(a, b), k

    def test_weights_count_ordered_pairs(self):
        config = float_random_config(2, 5, 7)
        invariants, weights = config.invariant_weights()
        assert invariants.shape == (28, 2) and weights.sum() == 49
        first, second = np.triu_indices(7)
        assert np.array_equal(weights == 1, first == second)

    @pytest.mark.parametrize(
        "config",
        [great_antipodal(m, n) for m, n in ((1, 2), (2, 4), (2, 5), (3, 6), (4, 8))]
        + [orthogonal_split_config(2, 4), six_point_config()]
        + [disguised_great_antipodal(m, n) for m, n in ((2, 4), (2, 5), (3, 6), (4, 8))],
        ids=lambda c: c.label,
    )
    def test_float_invariants_match_exact(self, config):
        # Each frame is orthonormal, and spans its subspace, to a few eps
        # (these bases are well conditioned), so each angle lambda is off
        # by a few eps and p_i = sum lambda^i by i m times that.  Newton's
        # identity k e_k = sum_i (-1)^(i-1) e_(k-i) p_i has terms of size at
        # most C(m, k-i) m, each off by a few eps of its size, so e_k is
        # off by at most c eps sum_i C(m, k-i) m, c a small constant: 16.
        exact = pair_invariants(config)
        floats, weights = config.to_float().invariant_weights()
        m, eps = config.m, np.finfo(float).eps
        tol = [16 * eps * sum(math.comb(m, k - i) * m for i in range(1, k + 1)) for k in range(1, m + 1)]
        first, second = np.triu_indices(len(config))
        assert floats.shape == (len(exact), m)
        for pair, row in zip(zip(first.tolist(), second.tolist()), floats.tolist()):
            for want, got, bound in zip(exact[pair], row, tol):
                assert abs(float(want) - got) <= bound, (pair, exact[pair], row)

    def test_float_antipodality_from_chunks(self):
        assert float_antipodal(great_antipodal(3, 6).to_float())
        assert float_antipodal(disguised_great_antipodal(2, 5).to_float(), tol=1e-12)
        assert not float_antipodal(six_point_config().to_float())



ANGLE_MATRIX_CONFIGS = {
    "six-point": six_point_config,
    "great-antipodal-2-5": lambda: great_antipodal(2, 5),
    "exact-k1": lambda: SubspaceConfiguration([coordinate_subspace([0], 2)]),
    "float-six-point": lambda: six_point_config().to_float(),
    "float-random": lambda: SubspaceConfiguration([random_subspace(2, 5, seed=s) for s in range(5)]),
    "float-k1": lambda: SubspaceConfiguration([random_subspace(1, 2, seed=7)]),
}


@pytest.mark.parametrize("name", sorted(ANGLE_MATRIX_CONFIGS))
def test_angle_matrix_rows_hold_the_pair_table_tuples(name):
    # rows built in pair order hold the very tuples that one lookup per
    # entry finds, so a display formats each shared tuple once
    config = ANGLE_MATRIX_CONFIGS[name]()
    matrix = config.angle_matrix()
    want = angle_matrix_lookup(config)
    assert matrix == want
    assert all(got is expected for row, wanted in zip(matrix, want) for got, expected in zip(row, wanted))
    assert [len(row) for row in matrix] == [len(config)] * len(config)

class TestRandomSubspace:
    def test_self_angles(self):
        p = random_subspace(2, 6, seed=0)
        assert all(abs(v - 1) < 1e-12 for v in principal_angles(p, p))

    def test_generic_position(self):
        for seed in range(100):
            a = random_subspace(2, 6, seed=2 * seed)
            b = random_subspace(2, 6, seed=2 * seed + 1)
            y = principal_angles(a, b)
            assert y[-1] > 1e-6
            assert y[0] < 1 - 1e-6

    def test_determinism(self):
        a = random_subspace(3, 7, seed=42)
        b = random_subspace(3, 7, seed=42)
        assert (a.basis == b.basis).all()
