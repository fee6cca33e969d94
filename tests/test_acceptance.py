"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check here is exact unless stated otherwise; time limits are wall
clock per criterion.  Run with ``pytest tests/test_acceptance.py -v`` (the
status lines bypass capture so they always appear).
"""

import random
import sys
import time

from grassdesign.designs import (
    certificate_antipodal,
    certificate_average,
    certificate_product,
    column_family,
    design_defect,
    hook_family,
    is_T_design,
    lp_bound,
    weight_family,
)
from grassdesign.grassmann import (
    SubspaceConfiguration,
    great_antipodal,
    orthogonal_split_config,
    random_subspace,
    six_point_config,
)
from grassdesign.partitions import (
    Partition,
    binom,
    column_shape,
    enumerate_up_to_weight,
    hook_shape,
    row_shape,
)
from grassdesign.scalars import rational
from grassdesign.zonal import (
    harmonic_dim,
    zonal_column,
    zonal_hook,
    zonal_kernel,
    zonal_row,
)

from closed_forms import schur_in_zonal_basis, zonal_product_column
from exact_oracles import expansion_at_ones, is_antipodal_pair
from james_constantine import zonal_james_constantine


def criterion(number, limit_s, description):
    def wrap(fn):
        def run():
            start = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"FAIL criterion {number}: {description}", file=sys.__stdout__)
                raise
            elapsed = time.perf_counter() - start
            assert elapsed < limit_s, f"criterion {number} took {elapsed:.1f}s (limit {limit_s}s)"
            print(
                f"PASS criterion {number}: {description} ({elapsed:.2f}s)",
                file=sys.__stdout__,
            )

        run.__name__ = fn.__name__
        return run

    return wrap


@criterion(1, 30, "maximum antipodal sets average all column and hook components, exactly")
def test_criterion_01_great_antipodal_designs():
    for m, n in ((2, 4), (2, 5), (2, 6), (3, 6)):
        s = great_antipodal(m, n)
        assert len(s) == binom(n, m)
        for mu in column_family(m) + hook_family(m):
            if mu.is_zero():
                continue
            assert design_defect(s, mu) == 0, (m, n, mu)


@criterion(2, 5, "product certificate bound equals binomial(n, m) for m <= 3, 2m <= n <= 8")
def test_criterion_02_product_certificate_bounds():
    for m in (1, 2, 3):
        for n in range(2 * m, 9):
            assert lp_bound(certificate_product(m, n)).bound == binom(n, m), (m, n)


@criterion(3, 5, "six-point configuration: exact angle matrix, column design, hook failure")
def test_criterion_03_six_point_configuration():
    x = six_point_config()
    assert len(x) == 6
    one = rational(1)
    zero = rational(0)
    half = rational(1, 2)
    pair_11 = (one, one)
    pair_10 = (one, zero)
    pair_00 = (zero, zero)
    pair_h0 = (half, zero)
    expected = [
        [pair_11, pair_00, pair_10, pair_10, pair_10, pair_10],
        [pair_00, pair_11, pair_10, pair_10, pair_10, pair_10],
        [pair_10, pair_10, pair_11, pair_10, pair_h0, pair_h0],
        [pair_10, pair_10, pair_10, pair_11, pair_h0, pair_h0],
        [pair_10, pair_10, pair_h0, pair_h0, pair_11, pair_10],
        [pair_10, pair_10, pair_h0, pair_h0, pair_10, pair_11],
    ]
    matrix = x.angle_matrix()
    assert [[tuple(y) for y in row] for row in matrix] == expected
    assert is_T_design(x, column_family(2)).design
    assert not is_T_design(x, column_family(2) + hook_family(2)).design
    assert not is_antipodal_pair(x[2], x[4])


@criterion(4, 5, "coordinate antipodal set misses the weight-two single-row component")
def test_criterion_04_not_strength_two():
    s = great_antipodal(2, 4)
    defect = design_defect(s, row_shape(2, 2))
    assert defect != 0
    assert defect == 1344  # hand-derived over the three intersection classes


@criterion(5, 5, "average certificate bound n/m; the orthogonal split meets it")
def test_criterion_05_average_certificate():
    for m, n in ((1, 4), (2, 4), (2, 6), (3, 6)):
        assert lp_bound(certificate_average(m, n)).bound == rational(n, m)
    split = orthogonal_split_config(2, 4)
    assert len(split) == 2
    assert is_T_design(split, weight_family(2, 1)).design


@criterion(6, 60, "closed-form kernels match the general construction coefficientwise")
def test_criterion_06_closed_forms_equal_general_construction():
    for m in (1, 2, 3):
        for n in range(2 * m, 9):
            closed = (
                [(zonal_column(i, m, n), column_shape(i, m)) for i in range(0, m + 1)]
                + [(zonal_row(i, m, n), row_shape(i, m)) for i in range(0, 5)]
                + [(zonal_hook(i, m, n), hook_shape(i, m)) for i in range(1, m + 1)]
            )
            for kernel, mu in closed:
                assert kernel == zonal_james_constantine(mu, n) == zonal_kernel(mu, n), (mu, n)


@criterion(7, 10, "column basis-change matrices multiply to the exact identity")
def test_criterion_07_change_of_basis_inversion():
    for m in range(1, 5):
        for n in range(2 * m, 11):
            a = [
                [zonal_column(i, m, n).coeff(column_shape(j, m)) for j in range(m + 1)]
                for i in range(m + 1)
            ]
            d = [
                [
                    schur_in_zonal_basis(i, m, n).get(column_shape(j, m), rational(0))
                    for j in range(m + 1)
                ]
                for i in range(m + 1)
            ]
            eye = [[1 if i == j else 0 for j in range(m + 1)] for i in range(m + 1)]
            prod_ad = [
                [sum(a[i][k] * d[k][j] for k in range(m + 1)) for j in range(m + 1)]
                for i in range(m + 1)
            ]
            assert prod_ad == eye, (m, n)


@criterion(8, 60, "degree-one kernel product matches its four-term expansion at 50 points")
def test_criterion_08_product_identity():
    for m in (1, 2, 3):
        for n in range(2 * m, 9):
            for i in range(1, m + 1):
                pe = zonal_product_column(i, m, n)
                assert pe.hook > 0 and pe.down > 0
                assert pe.up >= 0 and pe.same >= 0
                if i == m:
                    assert pe.up == 0
                if n == 2 * m:
                    assert pe.same == 0
                z1 = zonal_kernel(column_shape(1, m), n)
                zi = zonal_kernel(column_shape(i, m), n)
                rng = random.Random(9000 + 64 * m + 8 * n + i)
                for _ in range(50):
                    pt = tuple(
                        sorted(
                            (rational(rng.randint(0, 210), 211) for _ in range(m)),
                            reverse=True,
                        )
                    )
                    assert z1.evaluate(pt) * zi.evaluate(pt) == pe.evaluate(pt), (m, n, i)


@criterion(9, 30, "kernel normalization and the column dimension-sum square")
def test_criterion_09_normalization_and_dimension_sum():
    for m in (1, 2, 3):
        for n in range(2 * m, 9):
            for mu in enumerate_up_to_weight(m, 4):
                kernel = zonal_james_constantine(mu, n)
                assert expansion_at_ones(kernel.expansion) == harmonic_dim(mu, n), (m, n, mu)
    for m in range(1, 5):
        for n in range(2 * m, 11):
            total = sum(harmonic_dim(column_shape(i, m), n) for i in range(m + 1))
            assert total == binom(n, m) ** 2, (m, n)


@criterion(10, 5, "binomial identity suite over the stated parameter boxes")
def test_criterion_10_binomial_identities():
    for n in range(0, 13):
        for m in range(0, n + 1):
            for k in range(0, m + 1):
                assert binom(n - k, m - k) * binom(n, k) == binom(n, m) * binom(m, k)
    for n in range(0, 13):
        for p in range(0, n + 1):
            for m in range(0, n + 1):
                assert (
                    sum(
                        ((-1) ** k) * binom(p, k) * binom(n - k, m - k)
                        for k in range(0, m + 1)
                    )
                    == binom(n - p, m)
                )
    for n in range(0, 13):
        for m in range(0, 13):
            for p in range(0, 13):
                assert (
                    sum(binom(n, p - k) * binom(m, k) for k in range(0, p + 1))
                    == binom(n + m, p)
                )
    for n in range(0, 11):
        for u in range(0, 11):
            for r in range(0, 11):
                for i in range(0, r + 1):
                    lhs = sum(
                        ((-1) ** (t - i)) * binom(t, i) * binom(n - t, r - t) * binom(u, t)
                        for t in range(i, r + 1)
                    )
                    assert lhs == binom(n - u, r - i) * binom(u, i)


@criterion(11, 30, "kernel positivity over seeded random float configurations")
def test_criterion_11_float_positivity():
    for m, n in ((2, 4), (2, 6)):
        for seed in range(20):
            size = 2 + seed % 5
            pts = [
                random_subspace(m, n, seed=1_000_000 + 1000 * n + 37 * seed + k)
                for k in range(size)
            ]
            config = SubspaceConfiguration(pts, label=f"float-{n}-{seed}")
            for mu in enumerate_up_to_weight(m, 3):
                defect = design_defect(config, mu)
                scale = size * size * harmonic_dim(mu, n)
                assert defect >= -1e-9 * scale, (m, n, seed, mu)
