"""Antipodal configurations counted and tabulated through their atoms, against the pair batch.

Pairwise antipodal points are sums of orthogonal atoms of C^n, and a
pair's invariant follows from the total rank of the atoms they share
(:func:`pairbatch.atoms`).  A coordinate-aligned set reads its atoms off
its rows; any other set refines and certifies them.  Both the counts and
the per-pair table come from the atoms, with no pair batch.  Every
configuration that fails one of the exact checks goes to the pair batch
instead, once.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from grassdesign import grassmann, pairbatch
from grassdesign.exactlinalg import _is_prime, split_moduli
from grassdesign.grassmann import (
    RankDeficiencyError,
    SubspaceConfiguration,
    antipodal_invariant,
    great_antipodal,
    six_point_config,
)
from grassdesign.scalars import rational

from exact_oracles import pair_invariant_oracle, same_subspace, symmetry_image
from seeded_configs import (
    block_points,
    coordinate_points,
    dense_point,
    disguise,
    disguised_points,
    exact_document,
    orthogonal_split_config,
    recombine,
    scaled_coordinate_points,
    six_points,
)

ZERO, ONE = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))


def configuration(points, label="test") -> SubspaceConfiguration:
    return SubspaceConfiguration.from_json(exact_document(points, label))


def batch_classes(config) -> dict:
    """Ordered-pair counts of the batch's classes over all pairs i <= j, by descending invariant."""
    first, second = grassmann._pair_indices(len(config))
    invariants, classes = pairbatch.invariant_batch(config.points, first, second)
    counts = {e: 0 for e in invariants}
    for i, j, c in zip(first.tolist(), second.tolist(), classes.tolist()):
        counts[invariants[c]] += 1 if i == j else 2
    return counts


def atom_counts(config) -> dict:
    """The invariant counts of a configuration's atoms, which must certify."""
    return pairbatch.atom_counts(*pairbatch.atoms(config.points), config.m)


def batch_angles(config) -> list:
    """The angles of every pair i <= j, in pair order, read off one pair batch."""
    invariants, classes = pairbatch.invariant_batch(config.points, *grassmann._pair_indices(len(config)))
    angles = [grassmann.invariant_angles(e) for e in invariants]
    return [angles[c] for c in classes.tolist()]


@contextmanager
def counted_batches():
    """The number of pair batches that configurations run inside the block."""
    calls = []
    original = grassmann.invariant_batch
    with mock.patch.object(grassmann, "invariant_batch", lambda *args: calls.append(1) or original(*args)):
        yield calls


def as_points(config) -> list:
    """The bases of exact points as rows of (re, im) Fraction pairs."""
    return [[[(Fraction(re, s), Fraction(im, s)) for re, im in row] for row, s in zip(p.rows, p.scales)] for p in config]


def direct_sum(a: list, b: list) -> list:
    """The basis of V + W in C^(n1 + n2) for bases of V in C^n1 and W in C^n2."""
    left, right = len(a[0]), len(b[0])
    return [row + [ZERO] * right for row in a] + [[ZERO] * left + row for row in b]


@st.composite
def block_unions(draw, max_blocks: int) -> list:
    """Unions of coordinate blocks of ranks 1 to 3 with m coordinates each; blocks no point separates stay one atom."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=max_blocks))
    blocks, at = [], 0
    for size in sizes:
        blocks.append(list(range(at, at + size)))
        at += size
    m = draw(st.integers(1, at // 2))
    subsets = [s for r in range(1, len(blocks) + 1) for s in combinations(range(len(blocks)), r) if sum(sizes[k] for k in s) == m]
    assume(subsets)
    return block_points(blocks, draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=6)))


@st.composite
def atom_unions(draw) -> list:
    """An antipodal set: unions of blocks, a subset of an orthogonal split, or direct sums of two block sets."""
    kind = draw(st.sampled_from(["blocks", "split", "sum"]))
    if kind == "blocks":
        return draw(block_unions(5))
    if kind == "split":
        m, count = draw(st.integers(1, 3)), draw(st.integers(2, 4))
        split = as_points(orthogonal_split_config(m, m * count))
        return [split[k] for k in draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=6))]
    left, right = draw(block_unions(3)), draw(block_unions(3))
    return [direct_sum(a, b) for a, b in zip(left, right)]


@settings(max_examples=60, deadline=None)
@given(points=atom_unions(), disguised=st.booleans(), seed=st.integers(0, 2**32))
def test_atom_counts_equal_batch_counts_on_unions_of_atoms(points, disguised, seed):
    if disguised:
        points = disguise(points, seed)
    config = configuration(points)
    found = pairbatch.atoms(config.points)
    assert found is not None
    with counted_batches() as batches:
        got = config.invariant_classes()
        angles = config.pair_angles()
    assert batches == []
    want = batch_classes(config)
    assert list(got.items()) == list(want.items())
    # the atoms' per-pair table is the batch's, class indices included
    first, second = grassmann._pair_indices(len(config))
    invariants, classes = pairbatch.atom_table(*found, config.m)
    want_invariants, want_classes = pairbatch.invariant_batch(config.points, first, second)
    assert invariants == want_invariants and classes.tolist() == want_classes.tolist()
    assert list(angles) == list(zip(first.tolist(), second.tolist()))
    assert list(angles.values()) == batch_angles(config)


@settings(max_examples=30, deadline=None)
@given(
    base=st.sampled_from([(1, 2), (1, 3), (2, 4), (2, 5), "six"]),
    disguised=st.booleans(),
    seed=st.integers(0, 2**32),
    extra=st.integers(0, 2**32),
)
def test_non_antipodal_and_mixed_sets_fall_back_once(base, disguised, seed, extra):
    if base == "six":
        points = six_points()
    else:
        # a point with no zero entry is no coordinate subspace, so it does
        # not commute with every coordinate projector
        m, n = base
        dense = dense_point(m, n, extra)
        assume(all(v != ZERO for row in dense for v in row))
        points = coordinate_points(m, n)
        points.insert(random.Random(extra).randint(0, len(points)), dense)
    if disguised:
        points = disguise(points, seed)
    try:
        config = configuration(points)
    except RankDeficiencyError:
        assume(False)
    # no coordinate-aligned set: a pair (0, j) that is not antipodal fails
    # before the atoms are refined; else they are refined and fail there;
    # then the batch runs once
    with_first = [pair_invariant_oracle(config[0], b) for b in config]
    with mock.patch.object(pairbatch, "_refine", wraps=pairbatch._refine) as refine:
        assert pairbatch.atoms(config.points) is None
    assert refine.call_count == all(map(antipodal_invariant, with_first))
    with counted_batches() as batches:
        got = config.invariant_classes()
        assert config.invariant_classes() == got
        if base == "six":
            assert list(config.pair_angles().values()) == batch_angles(config)
    assert len(batches) == 1
    assert list(got.items()) == list(batch_classes(config).items())


def test_a_pair_with_the_first_point_that_is_not_antipodal_fails_before_refining():
    # two dense lines of C^400: the trace identity on the images of the
    # pair (0, 1) fails, so no atom is refined
    config = configuration([dense_point(1, 400, s) for s in (0, 1)])
    with mock.patch.object(pairbatch, "_refine", side_effect=AssertionError("refined")):
        assert pairbatch.atoms(config.points) is None
        with counted_batches() as batches:
            assert len(config.pair_angles()) == 3
    assert len(batches) == 1


def test_counts_are_the_johnson_scheme_relations():
    # ordered pairs of m-subsets of n with w in common number
    # C(n, m) C(m, w) C(n - m, m - w), in descending order w = m, .., 0;
    # the 924 points of (6, 12) take several row chunks
    for m, n in ((1, 2), (2, 4), (2, 6), (3, 6), (3, 7), (4, 8), (6, 12)):
        got = atom_counts(great_antipodal(m, n))
        assert list(got.items()) == [
            (tuple(rational(math.comb(w, k)) for k in range(1, m + 1)), math.comb(n, m) * math.comb(m, w) * math.comb(n - m, m - w))
            for w in range(m, -1, -1)
        ]


def test_counts_identical_across_chunk_sizes(monkeypatch):
    # a disguised set splits its atoms, a coordinate set reads them off
    # its rows; both count and tabulate in row chunks
    default = pairbatch.PAIR_CHUNK_ELEMENTS
    for config in (configuration(disguised_points(3, 6, 3)), great_antipodal(3, 6)):
        monkeypatch.setattr(pairbatch, "PAIR_CHUNK_ELEMENTS", default)
        want = atom_counts(config)
        want_invariants, want_classes = pairbatch.atom_table(*pairbatch.atoms(config.points), config.m)
        for elements in (1, 7, 100, default):
            monkeypatch.setattr(pairbatch, "PAIR_CHUNK_ELEMENTS", elements)
            got = atom_counts(config)
            assert list(got.items()) == list(want.items())
            invariants, classes = pairbatch.atom_table(*pairbatch.atoms(config.points), config.m)
            assert invariants == want_invariants and classes.tolist() == want_classes.tolist()


def refinement_trace(monkeypatch, config) -> tuple:
    """The points that ``_split`` is called at and the chunks scanned, with one point per chunk."""
    monkeypatch.setattr(pairbatch, "PAIR_CHUNK_ELEMENTS", config.n * config.n)
    splits, chunks = [], []
    split, refine = pairbatch._split, pairbatch._refine

    def counting_refine(points, p, s, projectors, dens):
        return refine(points, p, s, lambda lo, hi: chunks.append((lo, hi)) or projectors(lo, hi), dens)

    monkeypatch.setattr(pairbatch, "_split", lambda point, *rest: splits.append(point) or split(point, *rest))
    monkeypatch.setattr(pairbatch, "_refine", counting_refine)
    assert pairbatch.atoms(config.points) is not None
    return [config.points.index(p) for p in splits], chunks


def test_refinement_regroups_coordinate_atoms_and_stops_at_lines(monkeypatch):
    # great_antipodal(2, 6) in lexicographic order, its rows recombined so
    # that the set is not read off its rows: every standard basis vector is
    # still a common eigenvector, so {0,1}, {0,2}, {0,3} and {0,4} regroup
    # the atoms into six lines with no split; with one point per chunk, no
    # point after {0,4} is reached
    config = configuration(recombine(coordinate_points(2, 6), 1))
    assert pairbatch._row_supports(config.points) is None
    splits, chunks = refinement_trace(monkeypatch, config)
    assert splits == []
    assert chunks == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_refinement_splits_where_points_reduce_atoms_and_stops_at_lines(monkeypatch):
    # a disguised G(2, 6): no standard basis vector is an eigenvector of
    # its projectors, so the first point splits C^6, the second both
    # parts, then the third and fourth leave six lines
    splits, chunks = refinement_trace(monkeypatch, configuration(disguised_points(2, 6, 2)))
    assert splits == [0, 1, 1, 2, 3]
    assert chunks == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_a_split_that_is_not_invariant_fails_before_certification():
    # every pair (0, j) of the six-point set is antipodal, so its atoms are
    # refined: its four coordinate planes leave the lines e_0 .. e_3, and
    # the fifth point, span{e_0 + i e_1, e_2}, meets the line e_0 without
    # reducing it: the parts in V_a and in its complement have rank 2
    config = configuration(six_points())
    splits, split = [], pairbatch._split
    with mock.patch.object(pairbatch, "_membership", side_effect=AssertionError("certified")):
        with mock.patch.object(pairbatch, "_split", lambda point, *rest: splits.append((point, split(point, *rest))) or splits[-1][1]):
            assert pairbatch.atoms(config.points) is None
    point, parts = splits[-1]
    assert point is config[4] and parts is None


def test_split_moduli():
    for bits, bound in ((30, 1), (29, 10**30), (25, 2**200)):
        pairs = split_moduli(bits, bound)
        primes = [p for p, _ in pairs]
        assert math.prod(primes) > bound and math.prod(primes[:-1]) <= bound
        assert primes == sorted(primes, reverse=True) and primes[0] < 2**bits
        for p, s in pairs:
            assert _is_prime(p) and p % 4 == 1 and s * s % p == p - 1
        # no prime 1 mod 4 is skipped between them
        assert not any(_is_prime(q) for q in range(primes[-1] + 4, 2**bits, 4) if q not in primes)


def test_atoms_of_rank_above_one_are_found():
    # blocks {0, 1}, {2, 3}, {4, 5} of C^6, disguised: no point separates a
    # block, so the refinement ends at three atoms of rank 2
    points = disguise(block_points([[0, 1], [2, 3], [4, 5]], [[0], [1], [2], [0]]), 3)
    member, ranks = pairbatch.atoms(configuration(points).points)
    assert ranks.tolist() == [2, 2, 2]
    got = pairbatch.atom_counts(member, ranks, 2)
    assert list(got.items()) == [((rational(2), rational(1)), 6), ((rational(0), rational(0)), 10)]


def test_coordinate_aligned_sets_are_read_off_their_rows():
    # one nonzero entry per row: no refinement and no images of any prime
    blocks = block_points([[0, 1], [2, 3], [4, 5]], [[0], [1], [2]])
    for config in (great_antipodal(3, 6), configuration(scaled_coordinate_points(2, 5)), configuration(blocks)):
        want = batch_classes(config)
        refine = mock.patch.object(pairbatch, "_refine", side_effect=AssertionError("refined"))
        images = mock.patch.object(pairbatch, "gaussian_images", side_effect=AssertionError("images"))
        with refine, images:
            got = config.invariant_classes()
            angles = config.pair_angles()
        assert list(got.items()) == list(want.items())
        assert list(angles.values()) == batch_angles(config)


@pytest.mark.parametrize("shape", [(1, 3), (2, 5), (3, 6)])
def test_scaled_unsorted_coordinate_rows_count_as_their_disguised_copy(shape):
    # rows (3+4i) e_j, -i e_j and 2 e_j, j descending, with -i written as
    # a file would hold it
    points = scaled_coordinate_points(*shape)
    doc = exact_document(points, "scaled")
    for point in doc["points"]:
        point["rows"] = [[{"0-1*i": "-i"}.get(v, v) for v in row] for row in point["rows"]]
    assert {v for point in doc["points"] for row in point["rows"] for v in row} == {"0", "3+4*i", "-i", "2"}
    config = SubspaceConfiguration.from_json(doc)
    assert pairbatch._row_supports(config.points) is not None
    got = atom_counts(config)
    disguised = configuration(disguise(points, 5))
    assert pairbatch._row_supports(disguised.points) is None
    for want in (atom_counts(disguised), batch_classes(config), batch_classes(disguised)):
        assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("make", [lambda: great_antipodal(6, 12), lambda: configuration(disguised_points(4, 8, 5))])
def test_pair_angles_of_antipodal_sets_run_no_batch(make):
    # 426,426 pairs over several row chunks, and the 2,485 pairs of a
    # disguised G(4, 8), each read off the atoms
    config = make()
    with counted_batches() as batches:
        angles = config.pair_angles()
    assert batches == []
    assert list(angles) == list(zip(*(x.tolist() for x in grassmann._pair_indices(len(config)))))
    assert list(angles.values()) == batch_angles(config)


@pytest.mark.parametrize("make", [lambda: configuration(disguised_points(3, 6, 3)), six_point_config])
def test_invariant_classes_do_not_depend_on_call_order(make):
    before, after = make(), make()
    want = before.invariant_classes()
    after.pair_angles()
    before.pair_angles()
    for config in (before, after):
        assert list(config.invariant_classes().items()) == list(want.items())
    assert list(want) == sorted(want, reverse=True)


EXACT_SETS = {
    "great-1-2": lambda: great_antipodal(1, 2),
    "great-2-4": lambda: great_antipodal(2, 4),
    "great-2-5": lambda: great_antipodal(2, 5),
    "great-3-6": lambda: great_antipodal(3, 6),
    "disguised-2-4": lambda: configuration(disguised_points(2, 4, 1)),
    "disguised-2-5": lambda: configuration(disguised_points(2, 5, 2)),
    "six": six_point_config,
    "disguised-six": lambda: configuration(disguise(six_points(), 13)),
    "mixed-2-4": lambda: configuration(coordinate_points(2, 4) + [dense_point(2, 4, 11)]),
    "rank-two-atoms": lambda: configuration(block_points([[0, 1], [2, 3], [4, 5], [6, 7]], [[0, 1], [1, 2], [0, 3]])),
}


@pytest.mark.parametrize("name", sorted(EXACT_SETS))
def test_geodesic_symmetries_fix_every_point_exactly_when_the_atoms_certify(name):
    # s_a(b) = b, for s_a = 2 P_a - I, holds when P_a and P_b commute
    config = EXACT_SETS[name]()
    fixed = all(same_subspace(symmetry_image(a, b), b) for i, a in enumerate(config) for b in config.points[i + 1 :])
    assert fixed == (pairbatch.atoms(config.points) is not None)
    assert fixed == (name.startswith(("great", "disguised-2", "rank")))
