"""Property tests: exact pair geometry does not depend on how points are presented."""

import pytest
from hypothesis import given, settings, strategies as st

from grassdesign.designs import column_family, hook_family, is_T_design
from grassdesign.exactlinalg import det
from grassdesign.grassmann import (
    EXACT,
    SubspaceConfiguration,
    SubspacePoint,
    great_antipodal,
    six_point_config,
)
from grassdesign.scalars import ExactComplex

CONFIGS = {"six-point": six_point_config(), "great-antipodal": great_antipodal(2, 4)}

gaussian_ints = st.builds(ExactComplex, st.integers(-3, 3), st.integers(-3, 3))


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
