"""Exact scalars: rationals and the text form of Gaussian rationals.

All core computations in this package run over exact rationals, which
are the standard library's ``fractions.Fraction``, or over integers.
A Gaussian rational p/q + (r/t) i is held as its parts, the int pairs
((p, q), (r, t)) in lowest terms: :func:`gaussian_parts` reads them off
its text and :func:`gaussian_text` writes it back, so exact points need
no complex scalar type.

:class:`ExactComplex`, a Gaussian rational with ``Fraction`` parts, has
no caller in the package.  Like ``BACKEND`` it stays only because the
benchmark in ``perfbench/`` reads it, and it goes when the benchmark
drops those reads.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

#: The rational type's name.  Nothing in the package reads it; it stays
#: only because ``perfbench/worker.py`` writes it into every benchmark
#: record, and goes when the benchmark drops that field.
BACKEND = "fraction"


def rational(p=0, q=1) -> Fraction:
    """Exact rational p/q."""
    return Fraction(p, q)


#: Types accepted wherever an exact real scalar is expected.
EXACT_REAL_TYPES = (int, Fraction)


def is_exact_real(x) -> bool:
    return isinstance(x, EXACT_REAL_TYPES)


def as_rational(x):
    """Coerce an int, Fraction or 'p/q' string to a Fraction.

    Floats are rejected: exact code paths must never absorb rounding.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return rational_from_str(x)
    raise TypeError(f"not an exact rational: {x!r}")


# Text forms of exact scalars, over ASCII digits only.  A rational is
# "p" or "p/q" with an optional sign on p; a Gaussian rational is
# "re", "re+im*i", "re-im*i", "re+i" or "re-i", or a pure imaginary
# "im*i", "-im*i", "i" or "-i", where im is an unsigned rational.
_UNSIGNED = r"[0-9]+(?:/[0-9]+)?"
_RATIONAL = re.compile(rf"[+-]?{_UNSIGNED}")
_COMPLEX = re.compile(rf"([+-]?{_UNSIGNED})(?:([+-])(?:({_UNSIGNED})\*)?i)?")
_IMAGINARY = re.compile(rf"([+-]?)(?:({_UNSIGNED})\*)?i")


def _reduced(text: str) -> tuple:
    """Lowest-terms (p, q), q > 0, of a matched 'p' or 'p/q'; a zero q raises ValueError."""
    p, _, q = text.partition("/")
    p, q = int(p), int(q or 1)
    if not q:
        raise ValueError(f"zero denominator in {text!r}")
    g = math.gcd(p, q)
    return p // g, q // g


def rational_from_str(s: str):
    """Parse 'p' or 'p/q'; malformed text, a non-string or a zero q raises ValueError."""
    text = s.strip() if isinstance(s, str) else ""
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"not a rational string: {s!r}")
    return rational(*_reduced(text))


def rational_to_str(x) -> str:
    return str(as_rational(x))


class ExactComplex:
    """Gaussian rational ``re + im*i`` with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = as_rational(re)
        self.im = as_rational(im)

    def __repr__(self):
        return f"ExactComplex({self.re}, {self.im})"

    def __str__(self):
        return gaussian_text((self.re.numerator, self.re.denominator), (self.im.numerator, self.im.denominator))

    def __eq__(self, other):
        if isinstance(other, ExactComplex):
            return self.re == other.re and self.im == other.im
        if isinstance(other, EXACT_REAL_TYPES):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __neg__(self):
        return ExactComplex(-self.re, -self.im)

    def _coerced(self, other):
        if isinstance(other, ExactComplex):
            return other
        if isinstance(other, EXACT_REAL_TYPES):
            return ExactComplex(other)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return ExactComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return ExactComplex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return ExactComplex(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return ExactComplex(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        n = o.norm_sq()
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # 1/(a+bi) = (a-bi)/(a^2+b^2)
        return ExactComplex(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o / self

    def conjugate(self):
        return ExactComplex(self.re, -self.im)

    def norm_sq(self):
        return self.re * self.re + self.im * self.im

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    @staticmethod
    def from_str(s: str) -> "ExactComplex":
        """Parse 're', 're+im*i', 're-im*i' or 'im*i' with rational parts 'p/q'.

        A missing im reads as 1, as in 'i', '-i' and '1+i'; any other text
        raises ValueError.  The package parses entries with
        :func:`gaussian_parts`; this stays as the class's text codec.
        """
        (p, q), (r, t) = gaussian_parts(s)
        return ExactComplex(Fraction(p, q), Fraction(r, t))


def gaussian_parts(s: str) -> tuple:
    """The text form of a Gaussian rational as lowest-terms int pairs ((p, q), (r, t)).

    The value is p/q + (r/t) i; the grammar is the one above, with
    surrounding whitespace stripped and a missing im read as 1, and no
    ``Fraction`` is made.  Any other text raises ValueError.
    """
    text = s.strip() if isinstance(s, str) else ""
    if match := _COMPLEX.fullmatch(text):
        real, sign, im = match.groups()
    elif match := _IMAGINARY.fullmatch(text):
        real = None
        sign, im = match.groups()
    else:
        raise ValueError(f"not a Gaussian rational: {s!r}")
    re_part = _reduced(real) if real else (0, 1)
    if sign is None:
        return re_part, (0, 1)
    r, t = _reduced(im) if im else (1, 1)
    return re_part, (-r if sign == "-" else r, t)


def _rational_text(p: int, q: int) -> str:
    """'p' or 'p/q' of p/q in lowest terms, q > 0."""
    g = math.gcd(p, q)
    return str(p // g) if q == g else f"{p // g}/{q // g}"


def gaussian_text(re: tuple, im: tuple) -> str:
    """The text form of the Gaussian rational p/q + (r/t) i, given as int pairs (p, q) and (r, t), q, t > 0.

    The inverse of :func:`gaussian_parts`: both parts in lowest terms,
    the real part always written and a nonzero imaginary one after it as
    '+im*i' or '-im*i', so i reads '0+1*i'.
    """
    text = _rational_text(*re)
    r, t = im
    if not r:
        return text
    return f"{text}{'-' if r < 0 else '+'}{_rational_text(abs(r), t)}*i"
