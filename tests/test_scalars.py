"""Exact scalars: Fraction is the rational type, and text round-trips."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from grassdesign.designs import column_family, hook_family, is_T_design
from grassdesign.grassmann import six_point_config
from grassdesign.scalars import (
    ExactComplex,
    as_exact_complex,
    as_rational,
    rational,
    rational_from_str,
)

BIG = 10**12

# signed numerators up to 10^12 over denominators up to 10^12, with zero
# drawn often enough that pure real and pure imaginary values show up
parts = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)


@given(parts, parts)
def test_str_round_trip(re, im):
    z = ExactComplex(re, im)
    assert ExactComplex.from_str(str(z)) == z


@pytest.mark.parametrize("text", ["1/0", "0.5", "1e3", "", "1/2/3", "i1", True, 1.5])
def test_malformed_scalars_raise_value_error(text):
    with pytest.raises(ValueError):
        rational_from_str(text)
    with pytest.raises(ValueError):
        as_exact_complex(text)


# outside the grammar "p/q", "re+im*i", "re-im*i" over ASCII digits
MALFORMED = ["1++2*i", "1+*i", "1-+2*i", "2i", "1/+2", "1/-2", "1_000", "\u0661\u0662",
             "1 + 2*i", "*i", "+", "-", "1+2*i+3*i", "1+2*j"]


@pytest.mark.parametrize("text", MALFORMED)
def test_scalar_grammar_is_strict(text):
    with pytest.raises(ValueError):
        ExactComplex.from_str(text)
    if "i" not in text:
        with pytest.raises(ValueError):
            rational_from_str(text)


@pytest.mark.parametrize(
    "text, want",
    [
        ("-3/5-4/25*i", ExactComplex(Fraction(-3, 5), Fraction(-4, 25))),
        ("0+1*i", ExactComplex(0, 1)),
        (" 2+3*i ", ExactComplex(2, 3)),
        ("1+i", ExactComplex(1, 1)),
        ("1-i", ExactComplex(1, -1)),
        ("i", ExactComplex(0, 1)),
        ("-i", ExactComplex(0, -1)),
        ("-1/2*i", ExactComplex(0, Fraction(-1, 2))),
        ("+3", ExactComplex(3)),
        ("-7/2", ExactComplex(Fraction(-7, 2))),
    ],
)
def test_scalar_grammar_forms(text, want):
    assert ExactComplex.from_str(text) == want


def test_rationals_are_fractions():
    assert type(rational(1, 2)) is Fraction
    assert type(as_rational(3)) is Fraction
    report = is_T_design(six_point_config(), column_family(2) + hook_family(2))
    assert report.mode == "exact"
    assert all(type(e.defect) is Fraction for e in report.entries)
