"""Design verification, certificates and cardinality bounds."""

import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grassdesign import designs, zonal
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
from grassdesign.symfunc import SchurExpansion, ScaledPoints, schur_norm
from grassdesign.zonal import zonal_kernel

from closed_forms import schur_in_zonal_basis, zonal_product_column
from exact_oracles import (
    expansion_values,
    fraction_certificate_expansion,
    fraction_kernel_coefficients,
    kernel_expansion,
    moment_defects,
    schur_jacobi_trudi,
    schur_moments,
)
from seeded_configs import coordinate_points, dense_point, disguise, exact_document

COEFFICIENTS = st.builds(rational, st.integers(-50, 50), st.integers(1, 30))


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
    """Per-class kernel sums: sum over angle classes of count * Z_mu(y), Z_mu by its Schur expansion."""
    classes = config.angle_classes()
    out = []
    for mu in family:
        kernel = zonal_kernel(mu, config.n)
        total = rational(0) if config.mode == EXACT else 0.0
        for y, count in classes.items():
            total = total + count * kernel_expansion(kernel).evaluate(y)
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
        # each shape is one minor per exact table: the points' classes and
        # the all-ones point; float pairs take one batched minor for every
        # shape and pair, and each shape one exact minor at the ones
        family = parse_family(spec, config.m)
        calls = []
        real_minor = zonal.minor

        def counting_minor(rows, cols):
            calls.append(cols)
            return real_minor(rows, cols)

        monkeypatch.setattr(zonal, "minor", counting_minor)
        is_T_design(config, family)
        if config.mode == EXACT:
            assert len(calls) == len(family) * (len(config.invariant_classes()) + 1)
        else:
            assert len(calls) == 1 + len(family)

    def test_defects_read_kernels_with_no_fraction_view(self, monkeypatch):
        # neither mode builds a kernel: defects come from the Jacobi-h tables
        zonal_kernel.cache_clear()
        monkeypatch.setattr(zonal, "ZonalPolynomial", None)
        exact = great_antipodal(3, 6)
        family = column_family(3) + hook_family(3)
        assert is_T_design(exact, family).design and is_T_design(exact.to_float(), family).design
        assert zonal_kernel.cache_info().misses == 0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), m=st.integers(1, 4))
    def test_exact_moments_are_count_weighted_class_sums(self, data, m):
        # the oracle's moments; invariant classes with denominators up to
        # 2^17 drawn independently per entry, so the classes share no d,
        # and random pair counts
        value = st.integers(1, 2**17).flatmap(lambda q: st.integers(-3 * q, 3 * q).map(lambda p: rational(p, q)))
        classes = data.draw(st.lists(st.tuples(*[value] * m), min_size=1, max_size=6, unique=True))
        counts = data.draw(st.lists(st.integers(1, 10**6), min_size=len(classes), max_size=len(classes)))
        config = SimpleNamespace(mode=EXACT, invariant_weights=lambda: (classes, np.array(counts, dtype=np.int64)))
        sigmas = enumerate_up_to_weight(m, 5)
        moments = schur_moments(config, sigmas)
        assert list(moments) == sigmas
        for sigma in sigmas:
            want = sum(
                (c * schur_jacobi_trudi(sigma, (rational(1),) + e) for e, c in zip(classes, counts)),
                rational(0),
            )
            assert type(moments[sigma]) is Fraction
            assert moments[sigma] == want / schur_norm(sigma), sigma

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), m=st.integers(1, 4))
    def test_table_sums_equal_the_moment_oracle_at_any_invariants(self, data, m):
        # the same free classes and counts, most of them the invariants of
        # no pair, at every shape of weight <= 5
        value = st.integers(1, 2**17).flatmap(lambda q: st.integers(-3 * q, 3 * q).map(lambda p: rational(p, q)))
        classes = data.draw(st.lists(st.tuples(*[value] * m), min_size=1, max_size=6, unique=True))
        counts = np.array(data.draw(st.lists(st.integers(1, 10**6), min_size=len(classes), max_size=len(classes))))
        n = data.draw(st.integers(2 * m, 2 * m + 3))
        config = SimpleNamespace(mode=EXACT, n=n, invariant_weights=lambda: (classes, counts))
        family = enumerate_up_to_weight(m, 5)
        sums = zonal.kernel_sums(family, n, classes, counts)
        assert all(type(s) is Fraction for s in sums)
        assert sums == moment_defects(config, family)


@st.composite
def seeded_exact_configs(draw):
    """Exact configurations of 2 to 4 seeded points, m <= 4: dense, disguised coordinate, or mixed."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(2 * m, 2 * m + 2))
    kind = draw(st.sampled_from(["dense", "disguised", "mixed"]))
    seeds = draw(st.lists(st.integers(0, 10**6), min_size=2, max_size=4, unique=True))
    coordinate = coordinate_points(m, n)[: len(seeds)]
    points = {
        "dense": [dense_point(m, n, s) for s in seeds],
        "disguised": disguise(coordinate, seeds[0]),
        "mixed": coordinate[:-1] + [dense_point(m, n, seeds[-1])],
    }[kind]
    return SubspaceConfiguration.from_json(exact_document(points, kind))


class TestKernelSums:
    @settings(max_examples=40, deadline=None)
    @given(config=seeded_exact_configs(), t=st.integers(0, 8))
    def test_table_equals_the_moment_oracle(self, config, t):
        family = weight_family(config.m, t)
        report = is_T_design(config, family)
        assert [e.defect for e in report.entries] == moment_defects(config, family)
        assert all(type(e.defect) is Fraction for e in report.entries)

    @pytest.mark.parametrize(
        "config",
        [six_point_config(), great_antipodal(2, 4), great_antipodal(3, 6), great_antipodal(4, 8)],
        ids=lambda c: c.label,
    )
    def test_float_copies_track_exact_defects(self, config):
        # every pass flag as in exact mode and within 1e-9 |X|^2 dim
        # through T40 (T20 at rank 4, whose float pairs take the 4 x 4
        # determinants one pair at a time), within 1e-10 |X|^2 dim through T12
        family = weight_family(config.m, 20 if config.m == 4 else 40)
        exact = is_T_design(config, family).entries
        approx = is_T_design(config.to_float(), family).entries
        scale = len(config) ** 2
        for e, f in zip(exact, approx):
            assert type(f.defect) is float and f.passed == e.passed, e.mu
            error = abs(f.defect - float(e.defect)) / (scale * e.dim)
            assert error <= (1e-10 if e.mu.weight <= 12 else 1e-9), e.mu


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

    def test_zero_function_follows_the_point_mode(self):
        zero = CoefficientFunction(2, 4, {})
        assert type(zero.evaluate((0.5, 0.2))) is float and zero.evaluate((0.5, 0.2)) == 0.0
        assert type(zero.evaluate((rational(1, 2), 0))) is Fraction and zero.evaluate((rational(1, 2), 0)) == 0

    def test_rejects_nonpositive_constant(self):
        cert = CoefficientFunction(2, 4, {column_shape(1, 2): rational(1)})
        with pytest.raises(ValueError):
            lp_bound(cert)


class TestKernelCoefficients:
    def test_kernel_converts_to_itself(self):
        for m in (1, 2, 3):
            for n in (2 * m, 2 * m + 3):
                for mu in enumerate_up_to_weight(m, 4):
                    cert = kernel_coefficients(kernel_expansion(zonal_kernel(mu, n)), n)
                    assert cert.coeffs == {mu: 1}, (mu, n)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), m=st.integers(1, 4))
    def test_integer_elimination_and_expansion_equal_the_fraction_oracle(self, data, m):
        # random exact polynomials over the shapes of weight <= 6, their
        # coefficients drawn with denominators up to 2^17
        n = data.draw(st.integers(2 * m, 2 * m + 4))
        value = st.integers(1, 2**17).flatmap(lambda q: st.integers(-3 * q, 3 * q).map(lambda p: rational(p, q)))
        shapes = data.draw(st.lists(st.sampled_from(enumerate_up_to_weight(m, 6)), min_size=1, max_size=8, unique=True))
        poly = SchurExpansion(m, [(sigma, data.draw(value)) for sigma in shapes])
        cert = kernel_coefficients(poly, n)
        want = fraction_kernel_coefficients(poly, n)
        assert cert.coeffs == want
        assert all(type(c) is Fraction for c in cert.coeffs.values())
        expansion, oracle = cert.expansion, fraction_certificate_expansion(cert)
        # equal coefficients, in the order of the Fraction sum, which float evaluation follows
        assert list(expansion.coeffs.items()) == list(oracle.coeffs.items())
        assert all(type(c) is Fraction for c in expansion.coeffs.values())
        assert expansion == poly

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
    """Record the size of every SchurExpansion.numerators call."""
    sizes = []
    batch = SchurExpansion.numerators
    monkeypatch.setattr(
        SchurExpansion,
        "numerators",
        lambda self, points: sizes.append(len(points)) or batch(self, points),
    )
    return sizes


def pointwise_nonnegativity(cert, depth, samples, seed) -> tuple:
    """Minimum, argmin, violations and count of a point-by-point loop over the row oracle.

    Grid points over d = depth, then samples over d = 10,000 from the
    seeded draws, in the order check_nonnegativity takes them.
    """
    points = ScaledPoints((ks, depth) for ks in descending_grid(cert.m, depth))
    rng = random.Random(seed)
    for _ in range(samples):
        points.append((sorted((rng.randint(0, 10_000) for _ in range(cert.m)), reverse=True), 10_000))
    best = None
    violations = []
    for i, value in enumerate(expansion_values(cert.expansion, points)):
        if best is None or value < best:
            best, best_at = value, points.point(i)
        if value < 0:
            violations.append(points.point(i))
    return best, best_at, violations, len(points)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_samples_are_the_randint_draws(seed):
    for m in range(1, 7):
        rng = random.Random(seed)
        want = [(sorted((rng.randint(0, 10_000) for _ in range(m)), reverse=True), 10_000) for _ in range(300)]
        assert list(designs._samples(m, 300, seed)) == want


def report_tuple(rep) -> tuple:
    return rep.minimum, rep.argmin, rep.violations, rep.points_checked


CHUNKS = [1, 7, designs.NONNEG_CHUNK]


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
        points = [tuple(rational(k, depth) for k in ks) for ks in descending_grid(2, depth)]
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

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        m=st.integers(1, 4),
        depth=st.integers(1, 6),
        samples=st.integers(0, 12),
        seed=st.integers(0, 1000),
        chunk=st.sampled_from(CHUNKS),
    )
    def test_integer_decisions_match_pointwise_loop(self, data, m, depth, samples, seed, chunk):
        # certificates over shapes of weight at most 4, the empty and the
        # constant-only one among them; with every point tied, the first wins
        shapes = enumerate_up_to_weight(m, 4)
        coeffs = data.draw(
            st.one_of(
                st.just({}),
                COEFFICIENTS.map(lambda c: {column_shape(0, m): c}),
                st.dictionaries(st.sampled_from(shapes), COEFFICIENTS, max_size=6),
            )
        )
        cert = CoefficientFunction(m, 2 * m + 1, coeffs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(designs, "NONNEG_CHUNK", chunk)
            rep = check_nonnegativity(cert, grid_depth=depth, samples=samples, seed=seed)
        assert report_tuple(rep) == pointwise_nonnegativity(cert, depth, samples, seed)
        assert all(type(v) is Fraction for v in (rep.minimum, *rep.argmin))

    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_minimum_tied_across_denominators_keeps_the_grid_point(self, monkeypatch, chunk):
        # F = ((y - 3/7)(y - c))^2 - eps at m = 1, with c the first sample
        # k / 10,000, off the depth-7 grid: the grid point 3/7 and the sample
        # tie at -eps over different denominators, and the grid point comes
        # first in point order
        depth, samples, seed = 7, 20, 11
        c = rational(random.Random(seed).randint(0, 10_000), 10_000)
        assert c * depth != int(c * depth)
        eps = rational(1, 10**6)
        s, p = rational(3, 7) + c, rational(3, 7) * c
        # y^4 - 2s y^3 + (s^2 + 2p) y^2 - 2sp y + p^2 - eps; X*_(k) = y^k at m = 1
        power = [p * p - eps, -2 * s * p, s * s + 2 * p, -2 * s, rational(1)]
        poly = SchurExpansion(1, [(Partition([k], m=1), a) for k, a in enumerate(power)])
        cert = kernel_coefficients(poly, 2)
        assert cert.expansion == poly
        monkeypatch.setattr(designs, "NONNEG_CHUNK", chunk)
        rep = check_nonnegativity(cert, grid_depth=depth, samples=samples, seed=seed)
        assert report_tuple(rep) == pointwise_nonnegativity(cert, depth, samples, seed)
        assert rep.minimum == -eps and rep.argmin == (rational(3, 7),)
        assert rep.violations[:2] == [(rational(3, 7),), (c,)]

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

    def test_exact_repeated_point_fails_both_sides(self):
        # the repeated pair has every angle 1, so an off-diagonal pair
        # has e_m != 0 even though the size is binomial(4, 2)
        pts = list(great_antipodal(2, 4))
        config = SubspaceConfiguration(pts[:5] + pts[:1], label="repeated")
        v = classify_tight_E(config)
        assert not v.design and not v.geometry

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
