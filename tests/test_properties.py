"""Property tests: exact pair geometry does not depend on how points are presented."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from grassdesign.designs import column_family, hook_family, is_T_design
from grassdesign.exactlinalg import det, mat_mul
from grassdesign.grassmann import (
    EXACT,
    RankDeficiencyError,
    SubspaceConfiguration,
    SubspacePoint,
    _angle_polynomial,
    great_antipodal,
    six_point_config,
)
from grassdesign.scalars import ExactComplex, rational

from exact_oracles import angle_polynomial

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
        moved = p.recombined(draw(invertible(config.m)))
        points.append(SubspacePoint([[row[k] for k in perm] for row in moved.basis], mode=EXACT))
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
    points = [SubspacePoint(mat_mul([list(r) for r in p.basis], unitary), mode=EXACT) for p in config]
    return SubspaceConfiguration(points, label=config.label)


@st.composite
def scaled_rows(draw, config):
    """The same subspaces with every row times a nonzero Gaussian rational."""
    scales = gaussian_rationals(9, 50).filter(bool)
    points = []
    for p in config:
        rows = []
        for row in p.basis:
            c = draw(scales)
            rows.append([c * v for v in row])
        points.append(SubspacePoint(rows, mode=EXACT))
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
            pair.append(SubspacePoint(rows, mode=EXACT))
        except RankDeficiencyError:
            assume(False)
    return pair


@settings(max_examples=60, deadline=None)
@given(pair=exact_pairs())
def test_angle_polynomial_matches_gram_inverse_oracle(pair):
    # most drawn pairs have irrational spectra, so this compares the
    # polynomials, not the roots
    a, b = pair
    assert _angle_polynomial(a, b) == angle_polynomial(a, b)
