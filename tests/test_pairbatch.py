"""The multi-modular pair batch against the per-pair integer oracle.

Antipodal pairs are certified by the trace identity D tr M = tr M^2 and
never reach Newton's identities or the Chinese remainder lift; the
tests below count both calls.
"""

import contextlib
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from grassdesign import pairbatch
from grassdesign.exactlinalg import (
    crt_lift,
    gram_adjugate,
    modulus_bits,
    residues,
    split_moduli,
)
from grassdesign.grassmann import (
    EXACT,
    RankDeficiencyError,
    SubspaceConfiguration,
    SubspacePoint,
    great_antipodal,
    invariant_batch,
    pair_invariant,
    six_point_config,
)
from grassdesign.scalars import ExactComplex, rational

from exact_oracles import (
    _adjoint,
    exact_basis,
    exact_complex_point,
    gaussian_adjugate,
    gaussian_mat_mul,
    pair_invariant_oracle,
    pair_invariants,
)
from seeded_configs import disguised_points, exact_document

BIG_PRIME = 10**9 + 7

# numerators up to 10^6 over denominators that include a large prime, so
# that reduced Gram denominators run to hundreds of bits
parts = st.builds(
    rational, st.integers(-(10**6), 10**6), st.sampled_from([1, 2, 3, 7, BIG_PRIME])
)
entries = st.builds(ExactComplex, parts, parts)


def all_pairs(k):
    return [(i, j) for i in range(k) for j in range(i, k)]


def unitary_image(config, seed):
    """An exact unitary image of a configuration, rows recombined, denominators mixed.

    Rotations by Pythagorean triples on random coordinate pairs (dense in
    every coordinate), then each point's rows mixed by a random invertible
    upper-triangular Gaussian-rational matrix; every principal angle is kept.
    """
    rng = random.Random(seed)
    n = config.n
    unitary = [[ExactComplex(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        a, b = rng.sample(range(n), 2)
        (p, q, r) = rng.choice([(3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29)])
        c, s = rational(p, r), rational(q, r)
        for row in unitary:
            row[a], row[b] = row[a] * c - row[b] * s, row[a] * s + row[b] * c
    points = []
    for pt in config:
        rows = [[sum((v * unitary[k][j] for k, v in enumerate(row)), ExactComplex(0)) for j in range(n)]
                for row in exact_basis(pt)]
        mixed = []
        for i in range(config.m):
            scale = ExactComplex(rational(rng.randint(1, 9), rng.choice([1, 5, BIG_PRIME])), rng.randint(0, 3))
            mix = [scale * v for v in rows[i]]
            for j in range(i + 1, config.m):
                c = ExactComplex(rational(rng.randint(-3, 3), rng.choice([1, 2, 7])))
                mix = [x + c * y for x, y in zip(mix, rows[j])]
            mixed.append(mix)
        points.append(exact_complex_point(mixed))
    return SubspaceConfiguration(points, label=config.label)


@st.composite
def exact_configurations(draw):
    """Dense random exact points of G(m, n), m <= 4, or a disguised bundled configuration.

    Random points almost always have irrational angles; the disguised
    copies have rational ones and many equal invariants.
    """
    if draw(st.booleans()):
        base = draw(st.sampled_from([(1, 3), (2, 4), (2, 5), (3, 6), "six"]))
        config = six_point_config() if base == "six" else great_antipodal(*base)
        if len(config) > 10:
            config = SubspaceConfiguration(config.points[:10], label=config.label)
        return unitary_image(config, draw(st.integers(0, 2**32)))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(2 * m, 2 * m + 1))
    points = []
    for _ in range(draw(st.integers(2, 4))):
        rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
        try:
            points.append(exact_complex_point(rows))
        except RankDeficiencyError:
            assume(False)
    return SubspaceConfiguration(points, label="random")


@settings(max_examples=40, deadline=None)
@given(config=exact_configurations())
def test_batch_matches_per_pair_oracle(config):
    pairs = all_pairs(len(config))
    invariants, classes = invariant_batch(config.points, *zip(*pairs))
    assert len(classes) == len(pairs)
    expected = {(i, j): pair_invariant_oracle(config[i], config[j]) for i, j in pairs}
    assert {pair: invariants[c] for pair, c in zip(pairs, classes.tolist())} == expected
    # classes are distinct, by descending invariant
    assert invariants == sorted(set(expected.values()), reverse=True)
    counts = {}
    for (i, j), e in expected.items():
        counts[e] = counts.get(e, 0) + (1 if i == j else 2)
    assert config.invariant_classes() == counts
    assert pair_invariants(config) == expected


# coordinate points, with no disguise, and the six-point set as given
PLAIN_CONFIGURATIONS = [great_antipodal(2, 4), great_antipodal(2, 5), six_point_config()]


@settings(max_examples=40, deadline=None)
@given(config=st.one_of(exact_configurations(), st.sampled_from(PLAIN_CONFIGURATIONS)))
def test_last_invariant_is_the_cauchy_binet_ratio(config):
    # the product of a pair's angles: with A the Gaussian-integer rows of a
    # point and G = A A^H, Cauchy-Binet gives
    # e_m(y_ab) det G_a det G_b = |det(A_a A_b^H)|^2
    dets = [gram_adjugate(p.rows)[0] for p in config]
    for i, j in all_pairs(len(config)):
        a, b = config[i], config[j]
        (re, im), _ = gaussian_adjugate(gaussian_mat_mul(a.rows, _adjoint(b.rows)))
        assert pair_invariant(a, b)[-1] * dets[i] * dets[j] == re**2 + im**2, (i, j)


def binomial_invariant(e) -> bool:
    """Whether (e_1, .., e_m) is (C(w, 1), .., C(w, m)) for some w, i.e. every angle is 0 or 1."""
    return any(e == tuple(math.comb(w, k) for k in range(1, len(e) + 1)) for w in range(len(e) + 1))


@contextlib.contextmanager
def recorded(name):
    """Record the first argument of every call of pairbatch.<name> inside the block."""
    calls = []
    original = getattr(pairbatch, name)
    with mock.patch.object(pairbatch, name, lambda values, *rest: calls.append(values) or original(values, *rest)):
        yield calls


def newton_pairs(calls) -> int:
    """The number of pair matrices that reached Newton's identities."""
    return sum(mats[0].shape[1] for mats in calls)


@st.composite
def mixed_configurations(draw):
    """An antipodal set, or the six-point set, possibly disguised, with one random exact point among them.

    The pairs of the random point are generic, so antipodal and generic
    pairs share every chunk; m = 1 is included.
    """
    base = draw(st.sampled_from([(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), "six"]))
    config = six_point_config() if base == "six" else great_antipodal(*base)
    points = config.points[:8]
    if draw(st.booleans()):
        points = unitary_image(SubspaceConfiguration(points), draw(st.integers(0, 2**32))).points
    m, n = config.m, config.n
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    try:
        extra = exact_complex_point(rows)
    except RankDeficiencyError:
        assume(False)
    points.insert(draw(st.integers(0, len(points))), extra)
    return SubspaceConfiguration(points, label="mixed")


@settings(max_examples=40, deadline=None)
@given(config=mixed_configurations())
def test_certificate_splits_mixed_batches_exactly(config):
    pairs = all_pairs(len(config))
    expected = [pair_invariant_oracle(config[i], config[j]) for i, j in pairs]
    with recorded("elementary_mod") as newton:
        invariants, classes = invariant_batch(config.points, *zip(*pairs))
    assert [invariants[c] for c in classes.tolist()] == expected
    assert invariants == sorted(set(expected), reverse=True)
    # exactly the pairs with an angle off {0, 1} go on to Newton's identities
    assert newton_pairs(newton) == sum(not binomial_invariant(e) for e in expected)


def test_antipodal_sets_skip_newton_and_lifting():
    disguised = SubspaceConfiguration.from_json(exact_document(disguised_points(3, 6, 3), "disguised-3-6"))
    for config in (great_antipodal(4, 8), disguised):
        pairs = all_pairs(len(config))
        with recorded("elementary_mod") as newton, recorded("crt_lift") as lifts:
            invariants, classes = invariant_batch(config.points, *zip(*pairs))
        assert newton == lifts == []
        assert invariants == [tuple(rational(math.comb(w, k)) for k in range(1, config.m + 1)) for w in range(config.m, -1, -1)]
        assert len(classes) == len(pairs)
    # the six-point set: only its four pairs with angles (1/2, 0) go on
    config = six_point_config()
    pairs = all_pairs(len(config))
    expected = [pair_invariant_oracle(config[i], config[j]) for i, j in pairs]
    with recorded("elementary_mod") as newton, recorded("crt_lift") as lifts:
        invariants, classes = invariant_batch(config.points, *zip(*pairs))
    assert [invariants[c] for c in classes.tolist()] == expected
    assert newton_pairs(newton) == sum(not binomial_invariant(e) for e in expected) == 4
    assert len(lifts) == 1


def parent_primes(points) -> list:
    """The primes of the batch without the certificate's range: twice the range of every e_k(M)."""
    m, n = points[0].m, points[0].n
    top = max(p.inv_den for p in points) ** 2
    bound = 2 * max(math.comb(m, j) * top**j for j in range(1, m + 1)) + 1
    return [p for p, _ in split_moduli(modulus_bits(n), bound)]


def test_certificate_needs_no_extra_prime_past_rank_one():
    doc = exact_document(disguised_points(3, 6, 3), "disguised-3-6")
    for config in (
        great_antipodal(2, 4),
        six_point_config(),
        SubspaceConfiguration.from_json(doc),
        unitary_image(great_antipodal(2, 5), 7),
        unitary_image(great_antipodal(3, 6), 8),
    ):
        assert pairbatch._PairBatch(config.points).primes == parent_primes(config.points)


def line(k) -> SubspacePoint:
    """The line through (k, 0) of G(1, 2), whose Gram inverse is 1 / k^2."""
    return SubspacePoint([[k, 0]], mode=EXACT)


def test_rank_one_bound_covers_the_certificate():
    # at m = 1, D^2 y (1 - y) <= D^2 / 4 passes twice the range [0, D] of
    # e_1(M): the primes grow with D^2, not with D
    for k in (1, 3, 2**10, 2**40, BIG_PRIME):
        points = [line(k), line(1)]
        batch = pairbatch._PairBatch(points)
        d = max(p.inv_den for p in points) ** 2
        assert math.prod(batch.primes) > d * d // 4
        assert len(batch.primes) >= len(parent_primes(points))
    assert len(pairbatch._PairBatch([line(2**40), line(1)]).primes) > len(parent_primes([line(2**40), line(1)]))
    points = unitary_image(great_antipodal(1, 3), 4).points
    pairs = all_pairs(len(points))
    invariants, classes = invariant_batch(points, *zip(*pairs))
    assert [invariants[c] for c in classes.tolist()] == [pair_invariant_oracle(points[i], points[j]) for i, j in pairs]


def test_certified_pair_with_no_weight_raises():
    # M = c D with c = 1 modulo the first prime and 0 modulo the others:
    # D tr M = tr M^2 holds modulo every prime, yet tr M is no w D
    a = line(2**20)
    primes = pairbatch._PairBatch([a, a]).primes
    assert len(primes) > 1
    total = math.prod(primes)
    c = total // primes[0] * pow(total // primes[0], -1, primes[0])
    b = SubspacePoint(a.to_json()["rows"], mode=EXACT)
    b.inv_num = [[(c, 0)]]
    with pytest.raises(ArithmeticError, match="outside its range"):
        invariant_batch([a, b], [0], [1])


def test_gram_inverse_in_lowest_terms():
    config = unitary_image(great_antipodal(2, 4), 5)
    for p in config:
        (det, _), adj = gaussian_adjugate(gaussian_mat_mul(p.rows, _adjoint(p.rows)))
        # N / D = adj(G) / det(G) with no common factor left
        assert det * p.inv_den > 0 and det % p.inv_den == 0
        assert p.inv_num == [[(re * p.inv_den // det, im * p.inv_den // det) for re, im in row] for row in adj]
        assert math.gcd(p.inv_den, *(x for row in p.inv_num for v in row for x in v)) == 1
    assert pair_invariant(config[0], config[1]) == pair_invariant_oracle(config[0], config[1])


def test_results_identical_across_chunk_sizes(monkeypatch):
    doc = exact_document(disguised_points(3, 6, 3), "disguised-3-6")
    points = SubspaceConfiguration.from_json(doc).points
    primes = pairbatch._PairBatch(points).primes
    assert len(primes) >= 8
    first, second = (np.array(x) for x in zip(*all_pairs(len(points))))
    invariants, classes = invariant_batch(points, first, second)
    counts = SubspaceConfiguration.from_json(doc).invariant_classes()
    calls = []
    keys = pairbatch._PairBatch.keys
    monkeypatch.setattr(pairbatch._PairBatch, "keys", lambda self, a, b: calls.append(len(a)) or keys(self, a, b))
    # one pair per chunk, three pairs per chunk, and the default; the few
    # classes of G(3, 6) each hold pairs of many chunks
    per_pair = 2 * len(primes) * 3 * 6
    for elements, chunks in ((1, 210), (3 * per_pair, 70), (pairbatch.PAIR_CHUNK_ELEMENTS, 3)):
        monkeypatch.setattr(pairbatch, "PAIR_CHUNK_ELEMENTS", elements)
        calls.clear()
        got, got_classes = invariant_batch(points, first, second)
        assert len(calls) == chunks
        assert got == invariants and np.array_equal(got_classes, classes)
        assert SubspaceConfiguration.from_json(doc).invariant_classes() == counts
    assert len(invariants) == 4 and sum(counts.values()) == 20 * 20


def test_int64_sums_at_large_n():
    # at n = 1100 a cross-Gram entry sums 1100 products of residues; the
    # prime width of 26 bits keeps them below 2^63, where 27-bit primes
    # would overflow, and so would 30-bit ones (the width at n <= 8)
    n = 1100
    bits = modulus_bits(n)
    assert bits == 26 and modulus_bits(8) == 30
    assert n * (2**bits) ** 2 < 2**63 <= n * (2 ** (bits + 1)) ** 2
    rng = random.Random(3)
    points = [
        exact_complex_point(
            [[ExactComplex(rng.randint(-(10**30), 10**30), rng.randint(-(10**30), 10**30)) for _ in range(n)]]
        )
        for _ in range(3)
    ]
    batch = pairbatch._PairBatch(points)
    assert max(batch.primes) < 2**bits and len(batch.primes) > 1
    pairs = all_pairs(3)
    invariants, classes = invariant_batch(points, *zip(*pairs))
    for (i, j), c in zip(pairs, classes.tolist()):
        assert invariants[c] == pair_invariant_oracle(points[i], points[j])


def test_out_of_range_lift_raises():
    # tripling N_a triples every angle: e_1 = 3 m > m lies outside [0, m]
    a = great_antipodal(2, 4)[0]
    b = SubspacePoint(a.to_json()["rows"], mode=EXACT)
    b.inv_num = [[(3 * re, 3 * im) for re, im in row] for row in b.inv_num]
    with pytest.raises(ArithmeticError, match="outside its range"):
        invariant_batch([a, b], [0], [1])


def test_nonzero_imaginary_residue_raises():
    # i N_a makes the pair matrix i M: its power sums are imaginary
    a = great_antipodal(2, 4)[0]
    b = SubspacePoint(a.to_json()["rows"], mode=EXACT)
    b.inv_num = [[(-im, re) for re, im in row] for row in b.inv_num]
    with pytest.raises(ArithmeticError, match="imaginary residue"):
        invariant_batch([b, a], [0], [1])


def test_certified_pair_with_a_nonreal_trace_raises():
    # N_b = c N_a with c = A + i and A = 1 - s modulo each prime: under
    # i -> s, c maps to 1 and the pair passes the certificate with w = 2;
    # only the images under i -> -s, where c maps to 1 - 2s, show that
    # tr M is not real, and no power sum is taken for a certified pair
    a = great_antipodal(2, 4)[0]
    primes = pairbatch._PairBatch([a, a]).primes
    roots = dict(split_moduli(modulus_bits(a.n), math.prod(primes)))
    (shift,) = crt_lift(np.array([[(1 - roots[p]) % p for p in primes]]), primes)
    b = SubspacePoint(a.to_json()["rows"], mode=EXACT)
    b.inv_num = [[(shift * re - im, shift * im + re) for re, im in row] for row in a.inv_num]
    with recorded("elementary_mod") as newton, pytest.raises(ArithmeticError, match="imaginary residue"):
        invariant_batch([b, a], [0], [1])
    assert newton == []


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.integers(-(2**200), 2**200), min_size=1, max_size=8),
    bound_bits=st.integers(1, 420),
)
def test_residues_and_lift_round_trip(values, bound_bits):
    bound = 2**bound_bits
    values = [v % (2 * bound) - bound for v in values]
    primes = [p for p, _ in split_moduli(modulus_bits(24), 2 * bound + 1)]
    # the middle and both ends of the symmetric range |x| < Q / 2
    half = (math.prod(primes) - 1) // 2
    values += [0, half, -half]
    res = residues(values, primes)
    assert res.tolist() == [[v % p for v in values] for p in primes]
    assert crt_lift(res.T, primes) == values
