"""Design verification, certificates and cardinality bounds."""

import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from grassdesign import designs
from grassdesign.designs import (
    DEFAULT_TOL,
    CoefficientFunction,
    certificate_antipodal,
    certificate_average,
    certificate_product,
    check_nonnegativity,
    classify_tight_E,
    classify_tight_EF,
    column_family,
    design_defect,
    hook_family,
    is_T_design,
    kernel_coefficients,
    lp_bound,
    parse_family,
    weight_family,
)
from grassdesign.grassmann import (
    EXACT,
    FLOAT,
    SubspaceConfiguration,
    SubspacePoint,
    great_antipodal,
    orthogonal_split_config,
    random_subspace,
    six_point_config,
)
from grassdesign.partitions import (
    Partition,
    binom,
    column_shape,
    descending_grid,
    enumerate_up_to_weight,
    hook_shape,
    row_shape,
)
from grassdesign.scalars import rational
from grassdesign.zonal import zonal_kernel

from closed_forms import schur_in_zonal_basis, zonal_product_column


def seeded_range_points(m, count, seed):
    rng = random.Random(seed)
    return [
        tuple(sorted((rational(rng.randint(0, 146), 147) for _ in range(m)), reverse=True))
        for _ in range(count)
    ]


class TestFamilies:
    def test_column_family(self):
        assert [p.parts for p in column_family(2)] == [(0, 0), (1, 0), (1, 1)]

    def test_hook_family(self):
        assert [p.parts for p in hook_family(3)] == [(2, 1, 0), (2, 1, 1)]
        assert hook_family(1) == []

    def test_weight_family(self):
        assert [p.parts for p in weight_family(2, 1)] == [(0, 0), (1, 0)]

    def test_parse(self):
        assert parse_family("E", 2) == column_family(2)
        assert parse_family("e+f", 2) == column_family(2) + hook_family(2)
        assert parse_family("T2", 2) == weight_family(2, 2)
        with pytest.raises(ValueError):
            parse_family("G", 2)


class TestDefects:
    def test_single_point_zero_shape(self):
        config = SubspaceConfiguration([great_antipodal(2, 4)[0]])
        assert design_defect(config, Partition([0, 0])) == 1

    def test_great_antipodal_column_defects_vanish(self):
        s = great_antipodal(2, 4)
        assert design_defect(s, Partition([1, 0])) == 0
        assert design_defect(s, Partition([1, 1])) == 0
        assert design_defect(s, Partition([2, 1])) == 0

    def test_great_antipodal_single_row_defect(self):
        # the coordinate antipodal set does not average the weight-two
        # single-row component; value derived by summing the kernel over
        # the three intersection classes by hand
        s = great_antipodal(2, 4)
        defect = design_defect(s, row_shape(2, 2))
        assert defect == 1344
        assert defect > 0

    def test_defect_is_exact_rational(self):
        s = great_antipodal(2, 5)
        val = design_defect(s, Partition([1, 1]))
        assert val == 0 and not isinstance(val, float)

    def test_ambient_mismatch(self):
        s = great_antipodal(2, 4)
        with pytest.raises(ValueError):
            design_defect(s, Partition([1, 0, 0]))


def oracle_defects(config, family):
    """Per-class kernel sums: sum over angle classes of count * Z_mu(y)."""
    classes = config.angle_classes()
    out = []
    for mu in family:
        kernel = zonal_kernel(mu, config.n)
        total = rational(0) if config.mode == EXACT else 0.0
        for y, count in classes.items():
            total = total + count * kernel.evaluate(y)
        out.append(total)
    return out


def random_float_config(m, n, size):
    return SubspaceConfiguration([random_subspace(m, n, seed=s) for s in range(size)])


def rotated_great_antipodal(seed):
    """A float unitary image of great_antipodal(2, 4)."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(z)
    pts = [SubspacePoint(p.basis @ q.T, mode=FLOAT) for p in great_antipodal(2, 4).to_float()]
    return SubspaceConfiguration(pts, label="rotated")


class TestSchurMoments:
    @pytest.mark.parametrize(
        "config, spec",
        [(random_float_config(2, 6, 30), "T4"), (rotated_great_antipodal(3), "E+F")],
        ids=["random-2-6", "rotated-great-antipodal"],
    )
    def test_float_defects_match_per_class_sums(self, config, spec):
        family = parse_family(spec, config.m)
        report = is_T_design(config, family)
        for entry, want in zip(report.entries, oracle_defects(config, family)):
            scale = len(config) ** 2 * entry.dim
            assert abs(entry.defect - want) <= 1e-12 * scale
            assert entry.passed == (entry.mu.is_zero() or abs(want) <= DEFAULT_TOL * scale)

    @pytest.mark.parametrize(
        "config",
        [six_point_config(), great_antipodal(2, 4), great_antipodal(3, 6)],
        ids=lambda c: c.label,
    )
    @pytest.mark.parametrize("spec", ["E+F", "T3"])
    def test_exact_defects_equal_per_class_sums(self, config, spec):
        family = parse_family(spec, config.m)
        want = oracle_defects(config, family)
        defects = [e.defect for e in is_T_design(config, family).entries]
        assert defects == want
        assert all(type(d) is Fraction for d in defects)
        assert [design_defect(config, mu) for mu in family] == want

    @pytest.mark.parametrize(
        "config, spec",
        [(random_float_config(2, 6, 30), "T4"), (six_point_config(), "T3")],
        ids=["float-random-2-6", "exact-six-point"],
    )
    def test_design_evaluates_each_sigma_once(self, monkeypatch, config, spec):
        family = parse_family(spec, config.m)
        batched = []
        batch = designs.normalized_schur_batch

        def counting_batch(sigmas, points):
            batched.extend(sigmas)
            return batch(sigmas, points)

        monkeypatch.setattr(designs, "normalized_schur_batch", counting_batch)
        is_T_design(config, family)
        support = {s for mu in family for s in zonal_kernel(mu, config.n).expansion.coeffs}
        assert Counter(batched) == Counter(support)


class TestIsTDesign:
    def test_great_antipodal_passes_columns_and_hooks(self):
        for m, n in ((2, 4), (2, 5)):
            s = great_antipodal(m, n)
            rep = is_T_design(s, column_family(m) + hook_family(m))
            assert rep.design
            zero_entry = rep.entry(column_shape(0, m))
            assert zero_entry.defect == len(s) ** 2

    def test_six_point_passes_columns_fails_hooks(self):
        x = six_point_config()
        assert is_T_design(x, column_family(2)).design
        rep = is_T_design(x, column_family(2) + hook_family(2))
        assert not rep.design
        assert rep.entry(hook_shape(2, 2)).defect == 700

    def test_orthogonal_split_is_strength_one(self):
        o = orthogonal_split_config(2, 4)
        assert is_T_design(o, weight_family(2, 1)).design
        assert not is_T_design(o, weight_family(2, 2)).design

    def test_subset_monotonicity(self):
        # a verdict over a family implies the verdict over each subfamily
        s = great_antipodal(2, 4)
        family = column_family(2) + hook_family(2)
        rep = is_T_design(s, family)
        for mu in family:
            assert rep.entry(mu).passed

    def test_float_mode_tolerance(self):
        s = great_antipodal(2, 4).to_float()
        rep = is_T_design(s, column_family(2), tol=1e-8)
        assert rep.design and rep.mode == "float"
        for e in rep.entries:
            assert isinstance(e.defect, float)

    def test_report_json(self):
        s = great_antipodal(2, 4)
        data = is_T_design(s, column_family(2)).to_json()
        assert data["design"] is True
        assert data["size"] == 6
        assert data["entries"][0]["defect"] == "36"


class TestLPBound:
    def test_product_certificate_bounds(self):
        for m in (1, 2, 3):
            for n in range(2 * m, 9):
                rec = lp_bound(certificate_product(m, n))
                assert rec.bound == binom(n, m), (m, n)

    def test_antipodal_certificate_bounds(self):
        for m in (2, 3):
            for n in range(2 * m, 9):
                rec = lp_bound(certificate_antipodal(m, n))
                assert rec.bound == binom(n, m), (m, n)

    def test_average_certificate_bounds(self):
        for m, n in ((1, 4), (2, 4), (2, 6), (3, 6)):
            rec = lp_bound(certificate_average(m, n))
            assert rec.bound == rational(n, m)

    def test_sign_partition(self):
        rec = lp_bound(certificate_product(2, 5))
        assert [p.parts for p in rec.t_plus] == [(0, 0), (1, 0), (1, 1)]
        assert rec.t_minus == []

    def test_rejects_nonpositive_constant(self):
        cert = CoefficientFunction(2, 4, {column_shape(1, 2): rational(1)})
        with pytest.raises(ValueError):
            lp_bound(cert)


class TestKernelCoefficients:
    def test_kernel_converts_to_itself(self):
        for m in (1, 2, 3):
            for n in (2 * m, 2 * m + 3):
                for mu in enumerate_up_to_weight(m, 4):
                    cert = kernel_coefficients(zonal_kernel(mu, n).expansion, n)
                    assert cert.coeffs == {mu: 1}, (mu, n)

    def test_certificates_match_column_change_of_basis(self):
        for m in range(1, 5):
            for n in range(2 * m, 11):
                assert certificate_product(m, n).coeffs == schur_in_zonal_basis(m, m, n)
                assert certificate_average(m, n).coeffs == schur_in_zonal_basis(1, m, n)

    def test_antipodal_hook_coefficients_closed_form(self):
        # B (prod y)(sum y) = B m X*_(1) X*_(1^m): expand X*_(1^m) over column
        # kernels and Z_(1) Z_(1^j) by the four-term product; the hook kernel
        # of height j >= 2 appears nowhere else
        for m in range(2, 5):
            for n in range(2 * m, 11):
                cert = certificate_antipodal(m, n)
                big_b = binom(n - 2, m - 1)
                d_top = schur_in_zonal_basis(m, m, n)
                d11 = schur_in_zonal_basis(1, m, n)[column_shape(1, m)]
                for j in range(2, m + 1):
                    want = (
                        d_top[column_shape(j, m)]
                        * d11
                        * zonal_product_column(j, m, n).hook
                        * m
                        * big_b
                    )
                    assert cert.coeff(hook_shape(j, m)) == want, (m, n, j)


class TestCertificates:
    def test_product_matches_angle_product(self):
        for m, n in ((2, 4), (2, 6), (3, 6)):
            cert = certificate_product(m, n)
            assert cert.coeff(column_shape(0, m)) == 1 / binom(n, m)
            for c in cert.coeffs.values():
                assert c > 0
            for pt in seeded_range_points(m, 30, seed=60 + n):
                want = rational(1)
                for v in pt:
                    want = want * v
                assert cert.evaluate(pt) == want
            assert cert.evaluate((1,) * m) == 1

    def test_antipodal_certificate_frozen_two_four(self):
        cert = certificate_antipodal(2, 4)
        assert cert.coeff(column_shape(0, 2)) == rational(2, 3)
        assert cert.coeff(column_shape(1, 2)) == rational(1, 10)
        assert cert.coeff(column_shape(2, 2)) == rational(1, 15)
        assert cert.coeff(hook_shape(2, 2)) == rational(1, 350)
        assert cert.coeff(row_shape(2, 2)) == 0

    def test_antipodal_certificate_closed_forms(self):
        for m, n in ((2, 4), (2, 5), (2, 6), (3, 6), (3, 7)):
            cert = certificate_antipodal(m, n)
            c0 = cert.coeff(column_shape(0, m))
            assert c0 == m * binom(n - 2, m - 1) / binom(n, m)
            assert c0 == rational(m * m * (n - m), n * (n - 1))
            assert cert.coeff(row_shape(2, m)) == 0
            for j in range(2, m + 1):
                assert cert.coeff(hook_shape(j, m)) > 0

    def test_antipodal_certificate_matches_defining_formula(self):
        for m, n in ((2, 4), (2, 5), (3, 6)):
            cert = certificate_antipodal(m, n)
            big_b = binom(n - 2, m - 1)
            for pt in seeded_range_points(m, 30, seed=80 + n):
                prod = rational(1)
                for v in pt:
                    prod = prod * v
                direct = big_b * prod * sum(pt) + sum(v * (1 - v) for v in pt)
                assert cert.evaluate(pt) == direct
            assert cert.f_at_ones() == m * big_b

    def test_antipodal_certificate_needs_rank_two(self):
        with pytest.raises(ValueError):
            certificate_antipodal(1, 4)

    def test_average_certificate(self):
        for m, n in ((2, 4), (3, 6)):
            cert = certificate_average(m, n)
            assert cert.coeff(column_shape(0, m)) == rational(m, n)
            assert cert.coeff(column_shape(1, m)) == rational(n - m, n * (n - 1) * (n + 1))
            for pt in seeded_range_points(m, 30, seed=90 + n):
                assert cert.evaluate(pt) == sum(pt) / m

    def test_certificate_json(self):
        data = certificate_average(2, 4).to_json()
        assert data["terms"][0] == {"partition": [0, 0], "coeff": "1/2"}


def count_batches(monkeypatch) -> list:
    """Record the size of every CoefficientFunction.evaluate_batch call."""
    sizes = []
    batch = CoefficientFunction.evaluate_batch
    monkeypatch.setattr(
        CoefficientFunction,
        "evaluate_batch",
        lambda self, points: sizes.append(len(points)) or batch(self, points),
    )
    return sizes


class TestNonnegativity:
    def test_product_certificate_grid(self):
        rep = check_nonnegativity(certificate_product(2, 4), grid_depth=20)
        assert rep.nonnegative_on_grid
        assert rep.minimum == 0
        assert rep.argmin[-1] == 0

    def test_antipodal_certificate_grid(self):
        rep = check_nonnegativity(certificate_antipodal(2, 4), grid_depth=20)
        assert rep.nonnegative_on_grid and rep.minimum >= 0

    def test_average_certificate_grid(self):
        rep = check_nonnegativity(certificate_average(2, 4), grid_depth=20)
        assert rep.minimum == 0
        assert all(v == 0 for v in rep.argmin)

    def test_sampled_points_and_violation_reporting(self):
        rep = check_nonnegativity(certificate_product(2, 4), grid_depth=5, samples=40, seed=3)
        assert rep.points_checked == len(list(descending_grid(2, 5))) + 40
        assert rep.nonnegative_on_grid
        # a certificate with a negative kernel coefficient dips negative
        bad = CoefficientFunction(
            2, 4, {column_shape(0, 2): rational(1, 100), column_shape(1, 2): rational(-1)}
        )
        rep_bad = check_nonnegativity(bad, grid_depth=6)
        assert not rep_bad.nonnegative_on_grid
        assert rep_bad.violations

    def test_streamed_chunks_match_pointwise_loop(self, monkeypatch):
        # F vanishes at the {0, 1} vertices with a zero coordinate, so
        # F - eps Z_(0) ties at -eps there; the first in point order wins
        eps = rational(1, 1000)
        coeffs = dict(certificate_antipodal(2, 5).coeffs)
        coeffs[column_shape(0, 2)] -= eps
        cert = CoefficientFunction(2, 5, coeffs)
        depth, samples, seed = 90, 30, 4
        batches = count_batches(monkeypatch)
        rep = check_nonnegativity(cert, grid_depth=depth, samples=samples, seed=seed)
        points = list(descending_grid(2, depth))
        assert len(points) > designs.NONNEG_CHUNK
        rng = random.Random(seed)
        for _ in range(samples):
            ys = sorted((rational(rng.randint(0, 10_000), 10_000) for _ in range(2)), reverse=True)
            points.append(tuple(ys))
        assert batches == [designs.NONNEG_CHUNK, len(points) - designs.NONNEG_CHUNK]
        values = [cert.evaluate(y) for y in points]
        best = min(values)
        assert rep.minimum == best == -eps
        assert rep.argmin == points[values.index(best)] == (1, 0)
        assert rep.violations == [y for y, v in zip(points, values) if v < 0]
        assert rep.points_checked == len(points)

    @pytest.mark.parametrize("chunk", [1, 7, 31, 40])
    def test_one_batch_call_per_chunk(self, monkeypatch, chunk):
        monkeypatch.setattr(designs, "NONNEG_CHUNK", chunk)
        batches = count_batches(monkeypatch)
        rep = check_nonnegativity(certificate_product(2, 4), grid_depth=7, samples=4, seed=1)
        total = len(list(descending_grid(2, 7))) + 4
        assert rep.points_checked == total == 40
        assert len(batches) == -(-total // chunk)
        assert sum(batches) == total and max(batches) == chunk


class TestTightness:
    def test_great_antipodal_tight_both_ways(self):
        s = great_antipodal(2, 4)
        v = classify_tight_E(s)
        assert v.design and v.geometry
        v2 = classify_tight_EF(s)
        assert v2.design and v2.geometry

    def test_six_point_tight_for_columns_only(self):
        x = six_point_config()
        v = classify_tight_E(x)
        assert v.design and v.geometry
        v2 = classify_tight_EF(x)
        assert not v2.design and not v2.geometry

    def test_random_floats_fail_both_sides(self):
        pts = [random_subspace(2, 4, seed=500 + k) for k in range(6)]
        config = SubspaceConfiguration(pts, label="random-six")
        v = classify_tight_E(config, tol=1e-8)
        assert not v.design and not v.geometry

    def test_float_unitary_image_tight_both_ways(self):
        # rounding leaves each diagonal angle vector a little different, so
        # the diagonal must be told apart by index, not by value
        rng = np.random.default_rng(3)
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(z)
        pts = [SubspacePoint(p.basis @ q.T, mode=FLOAT) for p in great_antipodal(2, 4).to_float()]
        config = SubspaceConfiguration(pts, label="rotated")
        assert len(config.angle_classes()) > 3
        v = classify_tight_E(config)
        assert v.design and v.geometry
        v2 = classify_tight_EF(config)
        assert v2.design and v2.geometry

    def test_wrong_cardinality_rejected(self):
        o = orthogonal_split_config(2, 4)
        with pytest.raises(ValueError, match="6"):
            classify_tight_E(o)

    def test_exact_three_way_certificate_conditions(self):
        # conditions: averaging where coefficients are positive, vanishing
        # of the certificate at distinct pairs, and meeting the bound size
        for m, n in ((2, 4), (2, 5), (2, 6), (3, 6)):
            s = great_antipodal(m, n)
            for cert in (certificate_product(m, n), certificate_antipodal(m, n)):
                rec = lp_bound(cert)
                assert rec.bound == len(s)
                rep = is_T_design(s, rec.t_plus)
                assert rep.design
                diag = (rational(1),) * m
                for y, count in s.angle_classes().items():
                    if y == diag:
                        continue
                    assert cert.evaluate(y) == 0, (m, n, y)
