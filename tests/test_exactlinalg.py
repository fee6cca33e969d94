"""Exact linear-algebra kernels: determinants, solves, spectra."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grassdesign.exactlinalg import gaussian_images, gram_adjugate, mat_mul, minor, modulus_bits, split_moduli
from grassdesign.scalars import ExactComplex, rational

from exact_oracles import (
    SingularMatrixError,
    _adjoint,
    charpoly,
    det,
    gaussian_adjugate,
    gaussian_charpoly,
    gaussian_mat_mul,
    invert,
    null_space,
    poly_eval,
    rank,
    solve,
)


def random_rational_matrix(n, seed, lo=-5, hi=5):
    rng = random.Random(seed)
    return [[rational(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]


def brute_det(rows):
    # Leibniz sum over permutations
    from itertools import permutations

    n = len(rows)
    total = rational(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = rational(1)
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + sign * term
    return total


def test_det_small():
    assert det([]) == 1
    assert det([[rational(3)]]) == 3
    assert det([[rational(2), rational(1)], [rational(1), rational(3)]]) == 5


def test_det_matches_leibniz():
    for seed in range(8):
        n = 1 + seed % 4
        m = random_rational_matrix(n, seed)
        assert det(m) == brute_det(m)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7, 10**12]), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_bareiss_det_matches_leibniz_on_sparse_integers(rows):
    # zeros on and below the diagonal force row swaps; integers stay integers
    value = det(rows)
    assert type(value) is int
    assert value == brute_det(rows)


def test_det_is_polynomial_at_large_rank():
    # a minor expansion would take 2^120 steps here
    n = 120
    rows = [[(i + 1) * (i == j) + (j > i) for j in range(n)] for i in range(n)]
    rows[0], rows[1] = rows[1], rows[0]
    assert det(rows) == -math.factorial(n)
    assert minor(rows, range(n)) == -math.factorial(n)


ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7, 10**12])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(ENTRIES, min_size=n + 2, max_size=n + 2), min_size=n, max_size=n),
            st.permutations(range(n + 2)),
        )
    )
)
def test_integer_minor_matches_the_oracle_determinant(case):
    # mostly zero entries force zero pivots, row swaps and singular blocks
    rows, order = case
    cols = order[: len(rows)]
    value = minor(rows, cols)
    assert type(value) is int
    assert value == det([[row[j] for j in cols] for row in rows])


def test_integer_minor_swaps_past_zero_pivots():
    # a zero pivot at the first and at the second elimination step
    rows = [[0, 1, 2, 3, 9], [0, 0, 1, 4, 1], [5, 0, 0, 1, 2], [1, 2, 3, 4, 5], [2, 0, 1, 0, 3]]
    for cols in ([0, 1, 2, 3, 4], [4, 2, 0, 3, 1], [1, 2, 3, 4, 0]):
        assert minor(rows, cols) == det([[row[j] for j in cols] for row in rows]) != 0
    # one swap flips the sign
    assert minor([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]], range(4)) == -6
    # a column of zeros below a zero pivot: singular
    rows[2][0] = rows[3][0] = rows[4][0] = 0
    assert minor(rows, [0, 1, 2, 3, 4]) == 0


def test_solve_and_invert():
    a = [[rational(2), rational(1)], [rational(1), rational(3)]]
    x = solve(a, [rational(1), rational(0)])
    assert x == [rational(3, 5), rational(-1, 5)]
    assert mat_mul(a, invert(a)) == [[1, 0], [0, 1]]


def test_solve_rejects_singular():
    with pytest.raises(SingularMatrixError):
        solve([[rational(1), rational(2)], [rational(2), rational(4)]], [rational(1), rational(1)])


def test_rank_and_null_space():
    m = [[rational(1), rational(2), rational(3)], [rational(2), rational(4), rational(6)]]
    assert rank(m) == 1
    basis = null_space(m)
    assert len(basis) == 2
    for vec in basis:
        for row in m:
            assert sum(c * v for c, v in zip(row, vec)) == 0


def random_gaussian_int_matrix(n, seed, lo=-6, hi=6):
    rng = random.Random(seed)
    return [[(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]


def as_gaussian_rationals(rows):
    return [[ExactComplex(re, im) for re, im in row] for row in rows]


def test_charpoly_matches_det_of_shifted_matrix():
    points = [ExactComplex(0), ExactComplex(1), ExactComplex(-2), ExactComplex(3, -1), ExactComplex(0, 2)]
    for seed in range(10):
        n = 1 + seed % 5
        m = random_gaussian_int_matrix(n, 100 + seed)
        poly = [ExactComplex(re, im) for re, im in gaussian_charpoly(m)]
        assert len(poly) == n + 1 and poly[n] == 1
        exact = as_gaussian_rationals(m)
        for x in points:
            shifted = [[x * (1 if i == j else 0) - exact[i][j] for j in range(n)] for i in range(n)]
            assert poly_eval(poly, x) == det(shifted)
    assert gaussian_charpoly([]) == [(1, 0)]


def test_gaussian_adjugate():
    for seed in range(10):
        n = 1 + seed % 5
        m = random_gaussian_int_matrix(n, 300 + seed)
        (dr, di), adj = gaussian_adjugate(m)
        exact = as_gaussian_rationals(m)
        assert ExactComplex(dr, di) == det(exact)
        scalar = [[ExactComplex(dr, di) if i == j else 0 for j in range(n)] for i in range(n)]
        assert mat_mul(exact, as_gaussian_rationals(adj)) == scalar
        assert mat_mul(as_gaussian_rationals(adj), exact) == scalar
    # a singular matrix has determinant 0 and a nonzero adjugate of rank one
    det_pair, adj = gaussian_adjugate([[(1, 1), (2, 2)], [(1, 0), (2, 0)]])
    assert det_pair == (0, 0) and adj == [[(2, 0), (-2, -2)], [(-1, 0), (1, 1)]]


GAUSSIAN = st.tuples(st.integers(-(10**6), 10**6), st.integers(-(10**6), 10**6))


@st.composite
def gram_rows(draw):
    """Gaussian-integer rows, m <= 6 and m <= n <= 2m + 3, a share made dependent.

    A dependent case zeroes a row j >= 1, repeats an earlier row as row
    j, or makes an earlier row a Gaussian multiple of row j, so that
    for generic rows the first zero pivot comes at step k = j > 0.
    """
    m = draw(st.integers(1, 6))
    n = draw(st.integers(m, 2 * m + 3))
    rows = draw(st.lists(st.lists(GAUSSIAN, min_size=n, max_size=n), min_size=m, max_size=m))
    kind = draw(st.sampled_from(["random"] * 3 + ["zero", "repeat", "multiple"] if m > 1 else ["random"]))
    if kind != "random":
        j = draw(st.integers(1, m - 1))
        i = draw(st.integers(0, j - 1))
        if kind == "zero":
            rows[j] = [(0, 0)] * n
        elif kind == "repeat":
            rows[j] = list(rows[i])
        else:
            cr, ci = draw(GAUSSIAN.filter(lambda c: c != (0, 0)))
            rows[i] = [(cr * xr - ci * xi, cr * xi + ci * xr) for xr, xi in rows[j]]
    return kind, rows


@settings(max_examples=300, deadline=None)
@given(gram_rows())
def test_gram_adjugate_matches_berkowitz(case):
    kind, rows = case
    (want_det, want_im), want_adj = gaussian_adjugate(gaussian_mat_mul(rows, _adjoint(rows)))
    value, adj = gram_adjugate(rows)
    assert type(value) is int and want_im == 0
    assert value == want_det >= 0
    # a zero determinant, forced or drawn, comes with no adjugate
    assert adj == (want_adj if value else None)
    if kind != "random":
        assert value == 0


def test_charpoly_over_gaussian_rationals():
    i = ExactComplex(0, 1)
    m = [[ExactComplex(0), i], [-i, ExactComplex(0)]]  # Pauli-like, eigenvalues +-1
    assert charpoly(m) == [-1, 0, 1]  # x^2 - 1


def flat_parts(rows) -> list:
    return [x for row in rows for pair in row for x in pair]


@settings(max_examples=80, deadline=None)
@given(data=st.data(), count=st.integers(1, 3), shape=st.tuples(*[st.integers(1, 4)] * 3), big=st.booleans())
def test_gaussian_images_are_ring_maps(data, count, shape, big):
    # entries past int64 take the Python-% path of the residues; imaginary
    # parts that are 0 or a multiple of the first prime make the two
    # images agree there
    k, r, c = shape
    bits = modulus_bits(r)
    pairs = split_moduli(bits, 2 ** (bits * (count - 1)))
    primes = [p for p, _ in pairs]
    assert len(primes) == count
    size = 2**100 if big else 2**20
    parts = st.integers(-size, size)
    imaginary = st.one_of(st.just(0), parts, st.builds(lambda t: t * primes[0], st.integers(-size, size)))

    def matrix(rows, cols):
        row = st.lists(st.tuples(parts, imaginary), min_size=cols, max_size=cols)
        return data.draw(st.lists(row, min_size=rows, max_size=rows))

    a, b = matrix(k, r), matrix(r, c)
    q = np.array(primes, dtype=np.int64).reshape(-1, 1, 1)
    image_a, image_b = gaussian_images(flat_parts(a), pairs, (k, r)), gaussian_images(flat_parts(b), pairs, (r, c))
    assert image_a.shape == (2, count, k, r) and image_a.dtype == np.int64
    for (p, s), image in zip(pairs, image_a.swapaxes(0, 1)):
        assert image.tolist() == [[[(re + t * s * im) % p for re, im in row] for row in a] for t in (1, -1)]
    # a ring map: the image of A B is the product of the images
    assert np.array_equal(gaussian_images(flat_parts(gaussian_mat_mul(a, b)), pairs, (k, c)), image_a @ image_b % q)
    # conjugation swaps the two images, so A^H maps to the reversed stack, transposed
    assert np.array_equal(gaussian_images(flat_parts(_adjoint(a)), pairs, (r, k)), image_a[::-1].swapaxes(-1, -2))
    # the images differ by 2 s im, so they agree exactly when im = 0 mod p
    agree = [[[im % p == 0 for _, im in row] for row in a] for p in primes]
    assert (image_a[0] == image_a[1]).tolist() == agree
