"""Kernel construction: dimensions, coefficients, closed-form equivalences."""

import inspect
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from grassdesign.partitions import (
    RANK_BUDGET,
    Partition,
    ShapeLimitError,
    binom,
    column_shape,
    enumerate_up_to_weight,
    hook_shape,
    row_shape,
)
from grassdesign import zonal
from grassdesign.scalars import rational
from grassdesign.symfunc import normalized_schur_eval
from grassdesign.zonal import (
    ZonalPolynomial,
    harmonic_dim,
    zonal_column,
    zonal_hook,
    zonal_kernel,
    zonal_row,
)

from closed_forms import bialternant_kernel, bialternant_terms, highest_weight, schur_in_zonal_basis, weyl_dim, zonal_product_column
from exact_oracles import expansion_at_ones, horner_tables
from james_constantine import (
    PoleError,
    generalized_binomial,
    hyper_coeff_pair,
    zonal_james_constantine,
)


def closed_dim_column(i, n):
    return (n - 2 * i + 1) * binom(n + 1, i) ** 2 / (n + 1)


def closed_dim_row(i, n):
    return (n + 2 * i - 1) * binom(n + i - 2, i) ** 2 / (n - 1)


def closed_dim_hook(i, n):
    return i * i * (n + 3) * (n - 2 * i + 1) * binom(n + 1, i + 1) ** 2 / (n - i + 2) ** 2


# shapes of weight <= 8 per rank m <= 4, and (mu, n) with 2m <= n <= 2m + 5
SHAPES_UP_TO_8 = {m: enumerate_up_to_weight(m, 8) for m in range(1, 5)}
KERNEL_CASES = st.integers(1, 4).flatmap(
    lambda m: st.tuples(st.sampled_from(SHAPES_UP_TO_8[m]), st.integers(2 * m, 2 * m + 5))
)


def closed_form_kernels(mu, n):
    """The closed-form kernels that apply to mu: column, row and hook."""
    m, parts, weight = mu.m, mu.parts, mu.weight
    out = []
    if all(p <= 1 for p in parts):
        out.append(zonal_column(weight, m, n))
    if not any(parts[1:]):
        out.append(zonal_row(weight, m, n))
    if parts[0] == 2 and all(p <= 1 for p in parts[1:]):
        out.append(zonal_hook(weight - 1, m, n))
    return out


def integer_total_sign(kernel):
    """Sign of the integer total sum c_sigma that zonal_kernel scales by.

    The top term's minor is triangular with a positive diagonal (k_i < k_j
    gives binom(k_i, k_j) = 0), so c_mu is (-1)^|mu| times a positive
    number, and the numerator c_mu dim / total carries the total's sign.
    """
    top = kernel.terms[kernel.mu]
    return (-1) ** kernel.mu.weight * (1 if top > 0 else -1)


def seeded_range_points(m, count, seed):
    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        vals = sorted((rational(rng.randint(0, 199), 199) for _ in range(m)), reverse=True)
        pts.append(tuple(vals))
    return pts


class TestHighestWeight:
    def test_examples(self):
        assert highest_weight(Partition([1, 0]), 4) == (1, 0, 0, -1)
        assert highest_weight(Partition([0, 0]), 4) == (0, 0, 0, 0)
        assert highest_weight(Partition([2, 1]), 6) == (2, 1, 0, 0, -1, -2)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            highest_weight(Partition([1, 0]), 3)


class TestDimensions:
    def test_examples(self):
        assert harmonic_dim(Partition([1, 0]), 4) == 15
        assert harmonic_dim(Partition([0, 0]), 4) == 1
        assert harmonic_dim(Partition([2, 1]), 4) == 175
        assert harmonic_dim(Partition([2, 0]), 4) == 84
        assert weyl_dim((1, 0, -1)) == 8  # adjoint of the rank-three unitary group

    def test_non_integral_weyl_product_rejected(self):
        with pytest.raises(ArithmeticError):
            weyl_dim((rational(1, 2), 0))  # (1/2 - 0 + 1) / 1

    def test_matches_the_full_weyl_product(self):
        # the O(m^2) factorisation against the product over all C(n, 2)
        # pairs of the signature
        for m in range(1, 5):
            for n in range(2 * m, 2 * m + 7):
                for mu in enumerate_up_to_weight(m, 7):
                    assert harmonic_dim(mu, n) == weyl_dim(highest_weight(mu, n)), (mu, n)

    def test_weyl_product_matches_closed_families(self):
        for m in (1, 2, 3):
            for n in range(2 * m, 9):
                for i in range(0, m + 1):
                    assert harmonic_dim(column_shape(i, m), n) == closed_dim_column(i, n)
                for i in range(0, 5):
                    assert harmonic_dim(row_shape(i, m), n) == closed_dim_row(i, n)
                for i in range(1, m + 1):
                    assert harmonic_dim(hook_shape(i, m), n) == closed_dim_hook(i, n)

    def test_column_dimension_sum_is_square(self):
        # the column components together span an endomorphism algebra,
        # so their dimensions add up to a perfect binomial square
        for m in range(1, 5):
            for n in range(2 * m, 11):
                total = sum(harmonic_dim(column_shape(i, m), n) for i in range(m + 1))
                assert total == binom(n, m) ** 2


class TestGeneralizedBinomial:
    def test_column_pairs_are_binomials(self):
        for m in (1, 2, 3):
            for i in range(m + 1):
                for j in range(m + 1):
                    got = generalized_binomial(column_shape(i, m), column_shape(j, m))
                    assert got == binom(i, j), (m, i, j)

    def test_top_coefficient_is_one(self):
        for kappa in (Partition([2, 1]), Partition([2, 2, 0]), Partition([3, 1])):
            assert generalized_binomial(kappa, kappa) == 1

    def test_constant_coefficient_is_one(self):
        # the shifted expansion evaluated at the origin recovers the
        # all-ones normalization
        for kappa in (Partition([2, 1]), Partition([1, 1, 1]), Partition([4, 0])):
            zero = Partition([0] * kappa.m)
            assert generalized_binomial(kappa, zero) == 1

    def test_incomparable_pairs_vanish(self):
        assert generalized_binomial(Partition([2, 0]), Partition([1, 1])) == 0
        assert generalized_binomial(Partition([1, 1]), Partition([2, 0])) == 0

    def test_hook_column_closed_form(self):
        for m in (2, 3):
            for i in range(1, m + 1):
                for j in range(1, i + 1):
                    got = generalized_binomial(hook_shape(i, m), column_shape(j, m))
                    assert got == rational(i + 1, i) * binom(i, j)
                for j in range(1, i + 1):
                    got = generalized_binomial(hook_shape(i, m), hook_shape(j, m))
                    assert got == rational(i + 1, j + 1) * binom(i - 1, j - 1)

    def test_defining_identity_at_points(self):
        # X*_kappa(y + 1) = sum_sigma [kappa; sigma] X*_sigma(y), an oracle
        # independent of the closed-form determinant behind the table
        from grassdesign.partitions import down_set

        rng = random.Random(3)
        for m in (2, 3, 4):
            for kappa in enumerate_up_to_weight(m, 5):
                for _ in range(3):
                    pt = tuple(rational(rng.randint(1, 97), 101) for _ in range(m))
                    shifted = tuple(v + 1 for v in pt)
                    rhs = sum(
                        generalized_binomial(kappa, s) * normalized_schur_eval(s, pt)
                        for s in down_set(kappa)
                    )
                    assert normalized_schur_eval(kappa, shifted) == rhs, kappa

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError):
            generalized_binomial(Partition([1, 0]), Partition([1, 0, 0]))


class TestHyperCoeffPair:
    def test_base_case(self):
        c = rational(9)
        assert hyper_coeff_pair(c, Partition([2, 1]), Partition([2, 1])) == 1

    def test_column_pair_closed_form(self):
        c = rational(13)
        for m in (2, 3):
            for i in range(1, m + 1):
                for j in range(0, i + 1):
                    want = rational(1)
                    for l in range(j, i):
                        want = want / (c - i - l + 1)
                    got = hyper_coeff_pair(c, column_shape(i, m), column_shape(j, m))
                    assert got == want, (m, i, j)

    def test_hook_pair_closed_form(self):
        c = rational(13)
        for m in (2, 3):
            for i in range(1, m + 1):
                for j in range(1, i + 1):
                    want = rational(1)
                    for k in range(j, i):
                        want = want / (c - i - k + 1)
                    got = hyper_coeff_pair(c, hook_shape(i, m), hook_shape(j, m))
                    assert got == want, (m, i, j)

    def test_pole_is_surfaced(self):
        # the weight-gap shift c + (rho_k - rho_s)/(k - s) vanishes at c = 2
        # for the pair ((1,1), (1,0))
        with pytest.raises(PoleError):
            hyper_coeff_pair(rational(2), Partition([1, 1]), Partition([1, 0]))


class TestKernels:
    def test_zero_shape_is_constant_one(self):
        for m, n in ((1, 3), (2, 4), (3, 7)):
            k = zonal_kernel(Partition([0] * m), n)
            assert k.dim == 1
            assert k.expansion.terms() == [(Partition([0] * m), rational(1))]

    def test_normalization_invariant(self):
        for m in (1, 2, 3):
            for n in range(2 * m, 9):
                for mu in enumerate_up_to_weight(m, 4):
                    k = zonal_james_constantine(mu, n)
                    assert expansion_at_ones(k.expansion) == harmonic_dim(mu, n)

    def test_support_inside_down_set(self):
        k = zonal_kernel(Partition([2, 1]), 5)
        for sigma in k.expansion.coeffs:
            assert sigma <= Partition([2, 1])

    def test_large_shape_builds(self):
        # the constructor checks the dimension at ones and the support
        k = zonal_kernel(Partition([5, 4, 3]), 9)
        assert k.dim == harmonic_dim(Partition([5, 4, 3]), 9)
        assert Partition([5, 4, 3]) in k.expansion.coeffs

    def test_deep_shape_builds_without_recursion(self):
        # no step of the construction recurses on the shape, so a weight-80
        # row builds with only a few dozen frames of stack to spare
        limit = sys.getrecursionlimit()
        depth = len(inspect.stack(0))
        sys.setrecursionlimit(depth + 60)
        try:
            kernel = zonal_kernel(row_shape(80, 1), 2)
        finally:
            sys.setrecursionlimit(limit)
        assert kernel == zonal_row(80, 1, 2)

    def test_deep_row_kernel_builds(self):
        # each Jacobi row comes from a ratio recurrence, one small-integer
        # multiply and exact divide per entry, so the table is not the
        # bottleneck of a 4001-term kernel
        started = time.perf_counter()
        kernel = zonal_kernel.__wrapped__(row_shape(4000, 1), 2)
        assert time.perf_counter() - started < 1
        assert len(kernel.expansion.coeffs) == 4001

    def test_rank_forty_kernel_builds(self):
        # one 1 x 1 minor per term: l((1)) = 1 whatever the rank
        started = time.perf_counter()
        kernel = zonal_kernel(row_shape(1, 40), 80)
        assert time.perf_counter() - started < 5
        assert kernel == zonal_row(1, 40, 80)

    def test_rank_forty_column_kernel_builds(self):
        # 41 integer minors of size 40, O(l(mu)^3) each: 1.6 to 1.9 s when
        # written, on a 2-core Xeon with CPython 3.11
        started = time.perf_counter()
        kernel = zonal_kernel.__wrapped__(column_shape(40, 40), 80)
        assert time.perf_counter() - started < 4
        assert kernel == zonal_column(40, 40, 80)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), m=st.integers(1, 7), gap=st.integers(0, 3))
    def test_minors_match_the_full_bialternant(self, data, m, gap):
        # l(mu) <= 6 and parts up to 8; a rank past the length gives the
        # minors' tail factors something to do
        length = data.draw(st.integers(0, min(m, 6)))
        parts = sorted(data.draw(st.lists(st.integers(0, 8), min_size=length, max_size=length)), reverse=True)
        mu, n = Partition(parts, m=m), 2 * m + gap
        assert zonal_kernel.__wrapped__(mu, n) == bialternant_kernel(mu, n)

    def test_rank_past_the_budget_is_refused(self):
        with pytest.raises(ShapeLimitError, match=str(RANK_BUDGET)):
            zonal_kernel(row_shape(1, RANK_BUDGET + 1), 2 * RANK_BUDGET + 2)
        with pytest.raises(ShapeLimitError, match=str(RANK_BUDGET)):
            enumerate_up_to_weight(RANK_BUDGET + 1, 0)
        assert len(enumerate_up_to_weight(RANK_BUDGET, 1)) == 2

    def test_closed_forms_match_general_construction(self):
        for m in (1, 2, 3):
            for n in range(2 * m, 9):
                for i in range(0, m + 1):
                    assert zonal_column(i, m, n) == zonal_james_constantine(column_shape(i, m), n)
                for i in range(0, 5):
                    assert zonal_row(i, m, n) == zonal_james_constantine(row_shape(i, m), n)
                for i in range(1, m + 1):
                    assert zonal_hook(i, m, n) == zonal_james_constantine(hook_shape(i, m), n)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), m=st.integers(1, 4), gap=st.integers(0, 6))
    def test_determinantal_kernel_matches_james_constantine(self, data, m, gap):
        mu = data.draw(st.sampled_from(enumerate_up_to_weight(m, 7)))
        n = 2 * m + gap
        assert zonal_kernel(mu, n) == zonal_james_constantine(mu, n)

    def test_row_and_column_coincide_at_height_one(self):
        for m in (1, 2, 3):
            for n in range(2 * m, 9):
                assert zonal_column(1, m, n) == zonal_row(1, m, n)

    def test_frozen_degree_one_kernel(self):
        # m = 2, n = 4: Z = 30 X*_(1) - 15
        k = zonal_kernel(Partition([1, 0]), 4)
        assert k.coeff(column_shape(1, 2)) == 30
        assert k.coeff(column_shape(0, 2)) == -15
        assert k.evaluate((1, 0)) == 0
        assert k.evaluate((0, 0)) == -15
        assert k.evaluate((1, 1)) == 15
        for point in ((1, 0, 0), (0.5,)):
            with pytest.raises(ValueError, match=f"ambients \\[2\\] vs invariants of length {len(point)}"):
                k.evaluate(point)

    def test_float_values_keep_their_digits_at_weight_thirty(self):
        # the float X* expansion of Z_(30) gave -3.5e10 at (0.7, 0.3)
        k = zonal_kernel(Partition([30, 0]), 4)
        exact = k.evaluate((rational(7, 10), rational(3, 10)))
        assert type(exact) is Fraction and exact == k.expansion.evaluate((rational(7, 10), rational(3, 10)))
        value = k.evaluate((0.7, 0.3))
        assert type(value) is float and abs(value - exact) <= 1e-12 * k.dim

    def test_frozen_hook_kernel(self):
        k = zonal_kernel(Partition([2, 1]), 4)
        assert k.dim == 175
        assert k.coeff(hook_shape(2, 2)) == 1400
        assert k.coeff(row_shape(2, 2)) == -1050
        assert k.coeff(column_shape(1, 2)) == 1050
        assert k.coeff(column_shape(2, 2)) == -1050
        assert k.coeff(column_shape(0, 2)) == -175
        assert k.evaluate((1, 0)) == 0
        assert k.evaluate((rational(1, 2), rational(0))) == 0

    def test_projective_line_kernel_shape(self):
        # m = 1 reduces to the projective-space kernels: degree one is
        # proportional to n*y - 1
        for n in (2, 4, 6):
            k = zonal_kernel(Partition([1]), n)
            c1 = k.coeff(column_shape(1, 1))
            c0 = k.coeff(column_shape(0, 1))
            assert c1 == -c0 * n
        with pytest.raises(ValueError):
            zonal_column(2, 1, 4)

    @settings(max_examples=80, deadline=None)
    @given(case=KERNEL_CASES)
    @example(case=(Partition([1, 0]), 6))
    @example(case=(Partition([1, 1]), 6))
    def test_integer_form_matches_its_fraction_view(self, case):
        mu, n = case
        kernel = zonal_kernel(mu, n)
        view = kernel.expansion
        assert view.coeffs == {s: Fraction(c, kernel.den) for s, c in kernel.terms.items()}
        # to_json writes the payload that str(Fraction) writes from the view, keys in order
        terms = [{"partition": list(s.parts), "coeff": str(c)} for s, c in view.terms()]
        want = {"m": mu.m, "terms": terms, "mu": list(mu.parts), "n": n, "dim": kernel.dim}
        assert list(kernel.to_json().items()) == list(want.items())
        for closed in closed_form_kernels(mu, n):
            assert closed.expansion == view
        if mu.weight <= 4:
            assert zonal_james_constantine(mu, n).expansion == view

    def test_property_examples_cover_both_signs_of_the_integer_total(self):
        negative, positive = zonal_kernel(Partition([1, 0]), 6), zonal_kernel(Partition([1, 1]), 6)
        assert integer_total_sign(negative) == -1 and integer_total_sign(positive) == 1
        for kernel in (negative, positive):
            # the full bialternant's total has the sign of the minors' one
            total = sum(c for _, c in bialternant_terms(kernel.mu, 6))
            assert integer_total_sign(kernel) == (1 if total > 0 else -1)
            # and the coefficients are not all integers
            assert any(c % kernel.den for c in kernel.terms.values())

    def test_invariants_are_checked_in_integers(self):
        mu, n = Partition([2, 1]), 4
        kernel = zonal_kernel(mu, n)
        terms, den = dict(kernel.terms), kernel.den
        assert ZonalPolynomial(mu, n, terms, den) == kernel
        zero = column_shape(0, 2)
        # a changed coefficient misses the dimension at the all-ones point
        with pytest.raises(ArithmeticError, match="at ones"):
            ZonalPolynomial(mu, n, terms | {zero: terms[zero] + 1}, den)
        # a term outside the down-set, with the sum at ones kept
        for stray in (row_shape(3, 2), Partition([1, 1, 0])):
            moved = terms | {zero: terms[zero] - 5, stray: 5}
            with pytest.raises(ArithmeticError, match="stray term"):
                ZonalPolynomial(mu, n, moved, den)
        # a zero or negative denominator is an ArithmeticError of its own, not a ZeroDivisionError
        for bad in (0, -den):
            with pytest.raises(ArithmeticError, match="need a positive one") as err:
                ZonalPolynomial(mu, n, terms, bad)
            assert type(err.value) is ArithmeticError

    def test_zero_integer_total_is_an_arithmetic_error(self, monkeypatch):
        monkeypatch.setattr(zonal, "minor", lambda rows, cols: 0)
        with pytest.raises(ArithmeticError, match="need a positive one") as err:
            zonal_kernel.__wrapped__(Partition([2, 1]), 4)
        assert type(err.value) is ArithmeticError

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            zonal_column(1, 2, 3)
        with pytest.raises(ValueError):
            zonal_hook(0, 2, 5)
        with pytest.raises(ValueError):
            zonal_row(-1, 2, 5)


class TestJacobiHTable:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), m=st.integers(1, 4), alpha=st.integers(0, 3), top=st.integers(0, 40))
    def test_recurrence_equals_the_horner_sums(self, data, m, alpha, top):
        # free invariants, most of them the invariants of no pair, with
        # denominators up to 2^17 drawn independently per entry, zero and
        # negative values included
        value = st.integers(1, 2**17).flatmap(lambda q: st.integers(-3 * q, 3 * q).map(lambda p: rational(p, q)))
        points = data.draw(st.lists(st.tuples(*[value] * m), min_size=1, max_size=4))
        scales, tables = zonal._exact_table(points, alpha, top)
        assert list(zip(scales, tables)) == horner_tables(points, m, alpha, top)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 4), alpha=st.integers(0, 3), top=st.integers(1, 40), data=st.data())
    def test_float_recurrence_is_exact_at_integer_invariants(self, m, alpha, top, data):
        # while every entry is below 2^30, each product of a step is below
        # 2^53 (a, b < 2^21 at k <= 40, alpha <= 3), so the float rows equal
        # the exact ones
        points = data.draw(st.lists(st.tuples(*[st.integers(-2, 2)] * m), min_size=1, max_size=4))
        _, tables = zonal._exact_table(points, alpha, top)
        exact = np.array(tables, dtype=object).transpose(1, 2, 0)
        approx = zonal._jacobi_h_table(np.array(points, dtype=float), 1.0, alpha, top)
        small = np.cumprod([np.abs(exact[:, k]).max() < 2**30 for k in range(top + 1)]).sum()
        assert small >= 2
        assert (approx[:, :small] == exact[:, :small].astype(float)).all()

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_kernel_sums_meet_the_dimension_at_the_all_ones_point(self, m):
        # det(G_1) comes from the Taylor coefficients of P_k at 1; the
        # table of the all-ones point itself must give the same minors
        ones = tuple(binom(m, k) for k in range(1, m + 1))
        family = enumerate_up_to_weight(m, 12 if m < 4 else 8)
        for n in range(2 * m, 2 * m + 4):
            dims = [harmonic_dim(mu, n) for mu in family]
            assert zonal.kernel_sums(family, n, [ones], [1]) == dims
            approx = zonal.kernel_sums(family, n, np.array([ones], dtype=float), [1])
            assert all(abs(a - d) <= 1e-9 * d for a, d in zip(approx, dims))

    def test_deep_row_at_rank_one_takes_one_step_per_row(self, monkeypatch):
        # T9999 at m = 1: one recurrence step per row, no Jacobi
        # coefficient row summed; an antipodal pair on the projective
        # line sums to 4 dim at even degree and to 0 at odd
        tops = []
        table = zonal._jacobi_h_table

        def counted(scaled, d, alpha, top):
            tops.append(top)
            return table(scaled, d, alpha, top)

        def refused(*args):
            raise AssertionError("kernel sums read no Jacobi coefficient row")

        monkeypatch.setattr(zonal, "_jacobi_h_table", counted)
        monkeypatch.setattr(zonal, "_jacobi_row", refused)
        sums = zonal.kernel_sums([Partition([9998]), Partition([9999])], 2, [(0,), (1,)], [2, 2])
        assert tops == [9999]
        assert sums == [4 * 19997, 0]


class TestChangeOfBasis:
    def test_frozen_values(self):
        d = schur_in_zonal_basis(1, 2, 4)
        assert d[column_shape(0, 2)] == rational(1, 2)
        assert d[column_shape(1, 2)] == rational(1, 30)
        assert schur_in_zonal_basis(0, 2, 4) == {column_shape(0, 2): rational(1)}

    def test_positive_coefficients(self):
        for m in (1, 2, 3):
            for n in range(2 * m, 9):
                for i in range(0, m + 1):
                    for c in schur_in_zonal_basis(i, m, n).values():
                        assert c > 0

    def test_reconstructs_normalized_schur(self):
        for m in (1, 2, 3):
            n = 2 * m + 1
            for i in range(0, m + 1):
                d = schur_in_zonal_basis(i, m, n)
                for pt in seeded_range_points(m, 5, seed=40 + i + m):
                    lhs = normalized_schur_eval(column_shape(i, m), pt)
                    kernels = [(zonal_kernel(s, n), c) for s, c in d.items()]
                    # both routes to each kernel value: the Jacobi-h table and the Schur expansion
                    assert lhs == sum(c * k.evaluate(pt) for k, c in kernels)
                    assert lhs == sum(c * k.expansion.evaluate(pt) for k, c in kernels)

    def test_inverse_matrix_identity(self):
        # kernel-to-Schur coefficients against Schur-to-kernel coefficients
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
                prod = [
                    [
                        sum(a[i][k] * d[k][j] for k in range(m + 1))
                        for j in range(m + 1)
                    ]
                    for i in range(m + 1)
                ]
                prod2 = [
                    [
                        sum(d[i][k] * a[k][j] for k in range(m + 1))
                        for j in range(m + 1)
                    ]
                    for i in range(m + 1)
                ]
                eye = [[1 if i == j else 0 for j in range(m + 1)] for i in range(m + 1)]
                assert prod == eye and prod2 == eye, (m, n)


class TestProductExpansion:
    def test_frozen_two_by_four(self):
        pe = zonal_product_column(1, 2, 4)
        assert pe.hook == rational(45, 28)
        assert pe.up == rational(15, 4)
        assert pe.same == 0
        assert pe.down == 15
        pe2 = zonal_product_column(2, 2, 4)
        assert pe2.hook == rational(9, 7)
        assert pe2.up == 0 and pe2.same == 0 and pe2.down == 5

    def test_sign_conditions(self):
        for m in (1, 2, 3):
            for n in range(2 * m, 9):
                for i in range(1, m + 1):
                    pe = zonal_product_column(i, m, n)
                    assert pe.hook > 0
                    assert pe.up >= 0 and pe.same >= 0
                    assert pe.down > 0
                    if i == m:
                        assert pe.up == 0
                    if n == 2 * m:
                        assert pe.same == 0

    def test_product_identity_at_seeded_points(self):
        for m in (1, 2, 3):
            for n in range(2 * m, 9):
                for i in range(1, m + 1):
                    pe = zonal_product_column(i, m, n)
                    z1 = zonal_kernel(column_shape(1, m), n)
                    zi = zonal_kernel(column_shape(i, m), n)
                    for pt in seeded_range_points(m, 50, seed=1000 + 64 * m + 8 * n + i):
                        assert z1.evaluate(pt) * zi.evaluate(pt) == pe.evaluate(pt)

    def test_at_ones_sums_to_dimension_product(self):
        for m in (2, 3):
            n = 2 * m + 1
            for i in range(1, m + 1):
                pe = zonal_product_column(i, m, n)
                total = sum(
                    c * harmonic_dim(s, n) for s, c in pe.terms().items()
                )
                want = harmonic_dim(column_shape(1, m), n) * harmonic_dim(column_shape(i, m), n)
                assert total == want


class TestPositivityEvidence:
    def test_kernel_sums_nonnegative_for_random_float_configs(self):
        # reproducing-kernel positivity: summed over any configuration the
        # kernel values cannot go materially negative
        from grassdesign.designs import design_defect
        from grassdesign.grassmann import SubspaceConfiguration, random_subspace

        for m, n in ((2, 4),):
            for seed in range(20):
                size = 2 + seed % 5
                pts = [random_subspace(m, n, seed=777 + 31 * seed + k) for k in range(size)]
                config = SubspaceConfiguration(pts, label=f"rand-{seed}")
                for mu in enumerate_up_to_weight(m, 3):
                    dim = harmonic_dim(mu, n)
                    defect = design_defect(config, mu)
                    assert defect >= -1e-9 * size * size * dim
