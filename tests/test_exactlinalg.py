"""Exact linear-algebra kernels: determinants, solves, spectra."""

import random

import pytest

from grassdesign.exactlinalg import (
    RootSearchLimitError,
    SingularMatrixError,
    charpoly,
    det,
    invert,
    mat_mul,
    null_space,
    poly_divmod,
    poly_eval,
    poly_gcd,
    rank,
    rational_roots,
    solve,
    square_free_part,
)
from grassdesign.scalars import ExactComplex, rational


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


def test_charpoly_matches_det_of_shifted_matrix():
    for seed in range(6):
        n = 2 + seed % 3
        m = random_rational_matrix(n, 100 + seed)
        poly = charpoly(m)
        for x in (rational(0), rational(1), rational(-2), rational(1, 2)):
            shifted = [[x * (1 if i == j else 0) - m[i][j] for j in range(n)] for i in range(n)]
            assert poly_eval(poly, x) == det(shifted)


def test_charpoly_over_gaussian_rationals():
    i = ExactComplex(0, 1)
    m = [[ExactComplex(0), i], [-i, ExactComplex(0)]]  # Pauli-like, eigenvalues +-1
    poly = charpoly(m)
    roots, leftover = rational_roots([c.re if isinstance(c, ExactComplex) else rational(c) for c in poly])
    assert leftover == 0
    assert sorted((float(r), mult) for r, mult in roots) == [(-1.0, 1), (1.0, 1)]


def test_poly_division_and_gcd():
    # (x - 1)^2 (x + 2) = x^3 - 3x + 2
    p = [rational(2), rational(-3), rational(0), rational(1)]
    q, r = poly_divmod(p, [rational(-1), rational(1)])
    assert r == [] or not any(r)
    assert poly_eval(q, rational(1)) == 0
    g = poly_gcd(p, [rational(-1), rational(1)])
    assert g == [rational(-1), rational(1)]
    sf = square_free_part(p)
    roots, leftover = rational_roots(sf)
    assert leftover == 0 and sorted(float(x) for x, _ in roots) == [-2.0, 1.0]
    assert all(mult == 1 for _, mult in roots)


def test_rational_roots_with_multiplicity():
    # x^2 (x - 1/2)^3
    p = [rational(0), rational(0), rational(-1, 8), rational(3, 4), rational(-3, 2), rational(1)]
    roots, leftover = rational_roots(p)
    assert leftover == 0
    assert dict(roots) == {rational(0): 2, rational(1, 2): 3}


def test_rational_roots_leaves_irrational_factor():
    # (x^2 - 2)(x - 1)
    p = [rational(2), rational(-2), rational(-1), rational(1)]
    roots, leftover = rational_roots(p)
    assert dict(roots) == {rational(1): 1}
    assert leftover == 2


def test_rational_roots_search_budget():
    # an end coefficient above the bit budget
    with pytest.raises(RootSearchLimitError):
        rational_roots([rational(-1), rational(2**41)])
    # 720720 and 17*19*...*41 have 240 and 128 divisors: too many candidates
    with pytest.raises(RootSearchLimitError):
        rational_roots([rational(-720720), rational(0), rational(10131543907)])
