"""Property tests: exact pair geometry does not depend on how points are presented."""

import contextlib
import copy
import io
import json
import math
import tempfile
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from grassdesign.cli import main
from grassdesign.designs import column_family, hook_family, is_T_design, weight_family
from grassdesign.grassmann import (
    EXACT,
    RankDeficiencyError,
    SubspaceConfiguration,
    antipodal_invariant,
    great_antipodal,
    six_point_config,
)
from grassdesign.scalars import ExactComplex, rational
from grassdesign.zonal import zonal_kernel

from exact_oracles import (
    angle_polynomial,
    antipodal_angles,
    det,
    exact_basis,
    exact_complex_point,
    kernel_expansion,
    mat_mul,
    orthogonal_complement,
    pair_invariant,
    pair_invariants,
    recombined,
)
from seeded_configs import orthogonal_split_config

CONFIGS = {"six-point": six_point_config(), "great-antipodal": great_antipodal(2, 4)}

gaussian_ints = st.builds(ExactComplex, st.integers(-3, 3), st.integers(-3, 3))


def gaussian_rationals(bound, max_den):
    part = st.builds(rational, st.integers(-bound, bound), st.integers(1, max_den))
    return st.builds(ExactComplex, part, part)


def invertible(m):
    row = st.lists(gaussian_ints, min_size=m, max_size=m)
    return st.lists(row, min_size=m, max_size=m).filter(lambda c: bool(det(c)))


@st.composite
def presentations(draw, config):
    """The same subspaces with recombined rows and permuted coordinates."""
    perm = draw(st.permutations(range(config.n)))
    points = []
    for p in config:
        moved = recombined(p, draw(invertible(config.m)))
        points.append(exact_complex_point([[row[k] for k in perm] for row in exact_basis(moved)]))
    return SubspaceConfiguration(points, label=config.label)


def ef_defects(config):
    family = column_family(config.m) + hook_family(config.m)
    return [e.defect for e in is_T_design(config, family).entries]


@pytest.mark.parametrize("name", sorted(CONFIGS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_angles_and_defects_ignore_presentation(name, data):
    original = CONFIGS[name]
    copy = data.draw(presentations(original))
    assert copy.angle_classes() == original.angle_classes()
    assert ef_defects(copy) == ef_defects(original)


def rotated(config):
    """Exact unitary image of a configuration, dense in every coordinate.

    The unitary is a Gaussian phase (3 + 4i)/5 on the first coordinate
    followed by the rotations with cosine 3/5 and sine 4/5 on each pair
    of adjacent coordinates; it preserves every principal angle.
    """
    n = config.n
    unitary = [[ExactComplex(int(i == j)) for j in range(n)] for i in range(n)]
    unitary[0][0] = ExactComplex(rational(3, 5), rational(4, 5))
    for k in range(n - 1):
        rot = [[ExactComplex(int(i == j)) for j in range(n)] for i in range(n)]
        rot[k][k] = rot[k + 1][k + 1] = ExactComplex(rational(3, 5))
        rot[k][k + 1], rot[k + 1][k] = ExactComplex(rational(4, 5)), ExactComplex(rational(-4, 5))
        unitary = mat_mul(unitary, rot)
    points = [exact_complex_point(mat_mul([list(r) for r in exact_basis(p)], unitary)) for p in config]
    return SubspaceConfiguration(points, label=config.label)


@st.composite
def scaled_rows(draw, config):
    """The same subspaces with every row times a nonzero Gaussian rational."""
    scales = gaussian_rationals(9, 50).filter(bool)
    points = []
    for p in config:
        rows = []
        for row in exact_basis(p):
            c = draw(scales)
            rows.append([c * v for v in row])
        points.append(exact_complex_point(rows))
    return SubspaceConfiguration(points, label=config.label)


@pytest.mark.parametrize("name", sorted(CONFIGS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_angle_classes_ignore_row_scaling(name, data):
    # a dense unitary image first, so that a row's entries carry
    # different denominators once scaled
    original = CONFIGS[name]
    copy = data.draw(scaled_rows(rotated(original)))
    assert copy.angle_classes() == original.angle_classes()


@st.composite
def exact_pairs(draw):
    """Two exact points of G(m, n), m <= 4, with Gaussian-rational entries."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(2 * m, 2 * m + 1))
    entries = gaussian_rationals(6, 12)
    pair = []
    for _ in range(2):
        rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
        try:
            pair.append(exact_complex_point(rows))
        except RankDeficiencyError:
            assume(False)
    return pair


@settings(max_examples=60, deadline=None)
@given(pair=exact_pairs())
def test_angle_polynomial_matches_gram_inverse_oracle(pair):
    # most drawn pairs have irrational spectra, so this compares the
    # polynomials, not the roots
    a, b = pair
    e = pair_invariant(a, b)
    poly = angle_polynomial(a, b)
    # prod (x - y_i) has the coefficient (-1)^k e_k at x^(m - k)
    assert poly[-1] == 1
    assert [(-1) ** k * poly[-1 - k] for k in range(1, len(poly))] == list(e)


@st.composite
def graph_configurations(draw):
    """Exact configurations of G(m, n), m <= 3, each basis [I | B] with B Gaussian rational.

    Every basis has full rank, and its condition number is bounded by the
    entry bound of B.  Almost every drawn pair has irrational angles.
    """
    m = draw(st.integers(1, 3))
    n = draw(st.integers(2 * m, 2 * m + 1))
    tail = st.lists(st.lists(gaussian_rationals(6, 6), min_size=n - m, max_size=n - m),
                    min_size=m, max_size=m)
    points = []
    for _ in range(draw(st.integers(2, 5))):
        b = draw(tail)
        rows = [[ExactComplex(int(i == j)) for j in range(m)] + b[i] for i in range(m)]
        points.append(exact_complex_point(rows))
    return SubspaceConfiguration(points, label="graphs")


@settings(max_examples=40, deadline=None)
@given(config=graph_configurations())
def test_exact_defects_match_float_defects(config):
    # Per ordered pair the float kernel value Z_mu = sum c_sigma X*_sigma
    # is off by two kinds of error.  Each |X*_sigma| <= 1 on [0, 1]^m, so
    # rounding in evaluating and summing the terms costs at most
    # 16 eps sum |c_sigma|.  The angles carry errors of a few eps from the
    # orthonormalizing SVDs of well-conditioned bases, and Z_mu, a
    # polynomial of degree w = |mu| in each angle bounded by dim on
    # [0, 1]^m, has partial derivatives at most 2 w^2 dim there
    # (Markov's inequality), so those cost at most 16 eps 2 m w^2 dim.
    # Summed over |X|^2 ordered pairs: c eps |X|^2 dim, with
    # c = 16 (sum |c_sigma| / dim + 2 m w^2).
    family = weight_family(config.m, 3 if config.m < 3 else 2)
    exact = is_T_design(config, family).entries
    approx = is_T_design(config.to_float(), family).entries
    eps = np.finfo(float).eps
    for e, f in zip(exact, approx):
        assert e.mu == f.mu
        spread = sum(abs(c) for c in kernel_expansion(zonal_kernel(e.mu, config.n)).coeffs.values())
        c = 16 * (float(spread) / e.dim + 2 * config.m * e.mu.weight**2)
        assert abs(float(e.defect) - f.defect) <= c * eps * len(config) ** 2 * e.dim


BUNDLED = (
    [great_antipodal(m, n) for m, n in ((1, 2), (1, 3), (2, 4), (2, 5), (2, 6), (3, 6), (3, 7))]
    + [orthogonal_split_config(m, n) for m, n in ((1, 2), (2, 4), (2, 6), (3, 6))]
    + [six_point_config(), rotated(six_point_config()), rotated(great_antipodal(2, 4))]
)


@pytest.mark.parametrize("config", BUNDLED, ids=lambda c: c.label)
def test_invariant_antipodality_matches_angles(config):
    angles = config.pair_angles()
    for pair, e in pair_invariants(config).items():
        assert antipodal_invariant(e) == antipodal_angles(angles[pair], EXACT)
    assert config.is_antipodal() == all(antipodal_angles(y, EXACT) for y in angles.values())


# angles outside [0, 1] too, so the test holds for any multiset
angle_values = st.sampled_from(
    [rational(v) for v in (0, 1, 2, -1)] + [rational(1, 2), rational(1, 3), rational(2, 3)]
)


@given(st.lists(angle_values, min_size=1, max_size=5))
def test_antipodal_invariant_decides_zero_one_angles(angles):
    e = tuple(
        sum((math.prod(c) for c in combinations(angles, k)), rational(0))
        for k in range(1, len(angles) + 1)
    )
    assert antipodal_invariant(e) == all(v in (0, 1) for v in angles)


@st.composite
def complement_closed_sets(draw):
    """{V_i, V_i^perp} for one to three random exact points V_i of G(m, 2m), m <= 3."""
    m = draw(st.integers(1, 3))
    points = []
    for _ in range(draw(st.integers(1, 3))):
        rows = draw(st.lists(st.lists(gaussian_ints, min_size=2 * m, max_size=2 * m), min_size=m, max_size=m))
        try:
            point = exact_complex_point(rows)
        except RankDeficiencyError:
            assume(False)
        points += [point, orthogonal_complement(point)]
    return SubspaceConfiguration(points, label="complement-closed")


@settings(max_examples=30, deadline=None)
@given(config=complement_closed_sets())
def test_complement_closed_sets_average_every_odd_component(config):
    # V -> V^perp maps the angles y to 1 - y, and at n = 2m the Jacobi
    # parameter is 0, so Z_mu(1 - y) = (-1)^|mu| Z_mu(y): the pairs of an
    # odd-weight defect cancel two by two
    odd = [mu for mu in weight_family(config.m, 5) if mu.weight % 2]
    assert [entry.defect for entry in is_T_design(config, odd).entries] == [0] * len(odd)
    # every (V, V^perp) is an antipodal pair with no angle 1
    assert config.invariant_classes()[(0,) * config.m] >= len(config)


def round_trip(config):
    return SubspaceConfiguration.from_json(json.loads(json.dumps(config.to_json())))


@settings(max_examples=25, deadline=None)
@given(
    drawn=st.one_of(
        graph_configurations().map(lambda c: (c, False)),
        st.sampled_from(BUNDLED).map(lambda c: (c, True)),
    )
)
def test_json_round_trip_keeps_invariants_and_angles(drawn):
    # exact angles only where they are rational: the bundled configurations
    config, rational_angles = drawn
    back = round_trip(config)
    assert (back.m, back.n, back.mode, back.label, len(back)) == (config.m, config.n, EXACT, config.label, len(config))
    assert pair_invariants(back) == pair_invariants(config)
    if rational_angles:
        assert back.pair_angles() == config.pair_angles()
    # floats are written by repr, so a float copy comes back bit for bit
    floats = config.to_float()
    back = round_trip(floats)
    assert back.mode == floats.mode and len(back) == len(floats)
    for got, want in zip(back.invariant_weights(), floats.invariant_weights()):
        assert np.array_equal(got, want)
    assert back.pair_angles() == floats.pair_angles()


VALID_CONFIGS = [six_point_config().to_json(), great_antipodal(1, 2).to_float().to_json()]
# text that no scalar parser, mode name or JSON keyword reads: no digits,
# no "i", "e", "f" or "n"
JUNK_TEXT = st.text(alphabet="abcdxyz{}[]#@!? ", max_size=6)
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    JUNK_TEXT,
    st.lists(st.integers(-3, 3), min_size=3, max_size=4),
    st.dictionaries(JUNK_TEXT, st.integers(), max_size=2),
)


@st.composite
def malformed_configs(draw):
    """Configuration file bytes with one defect that makes them invalid."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID_CONFIGS)))
    points = doc["points"]
    where = draw(st.integers(0, len(points) - 1))
    rows = points[where]["rows"]
    row = draw(st.integers(0, len(rows) - 1))
    kind = draw(st.sampled_from(
        ["bytes", "document", "points", "point", "rows", "entry", "ragged", "shape", "mode", "label"]
    ))
    if kind == "bytes":
        # too short for any valid configuration
        return draw(st.binary(max_size=30))
    if kind == "document":
        doc = draw(st.one_of(JUNK, st.integers(), st.just([])))
    elif kind == "points":
        doc["points"] = draw(st.one_of(JUNK, st.just([]), st.lists(JUNK, min_size=1, max_size=3)))
    elif kind == "point":
        points[where] = draw(st.one_of(JUNK.filter(lambda v: not isinstance(v, dict)), st.just({})))
    elif kind == "rows":
        not_a_row = JUNK.filter(lambda v: not isinstance(v, list))
        points[where]["rows"] = draw(st.one_of(JUNK, st.just([]), st.lists(not_a_row, min_size=1, max_size=2)))
    elif kind == "entry":
        rows[row][draw(st.integers(0, len(rows[row]) - 1))] = draw(JUNK)
    elif kind == "ragged":
        rows[row].pop()
    elif kind == "shape":
        key = draw(st.sampled_from(["m", "n"]))
        doc[key] = draw(st.one_of(JUNK, st.floats(allow_nan=False), st.integers().filter(lambda v: v != doc[key])))
    elif kind == "mode":
        doc["mode"] = draw(st.one_of(JUNK, st.integers()))
    else:
        doc["label"] = draw(st.one_of(JUNK.filter(lambda v: not isinstance(v, str)), st.integers()))
    return json.dumps(doc).encode()


@settings(max_examples=150, deadline=None)
@given(data=malformed_configs(), spec=st.sampled_from(["E+F", "T2"]))
def test_malformed_configs_exit_two_or_three_without_traceback(data, spec):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_bytes(data)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(["verify-design", "--config", str(path), "--set", spec])
            except SystemExit as exc:
                code = exc.code
    assert code in (2, 3), (code, err.getvalue())
    assert out.getvalue() == "" and "Traceback" not in err.getvalue()
