"""Exact scalar arithmetic: rationals and Gaussian rationals.

All core computations in this package run over exact rationals, which
are the standard library's ``fractions.Fraction``.  Gaussian rationals
(complex numbers with exact rational real and imaginary parts) are
provided by :class:`ExactComplex`; they are the entry type for exact
subspace bases.
"""

from __future__ import annotations

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


def rational_from_str(s: str):
    """Parse 'p' or 'p/q'; malformed text, a non-string or a zero q raises ValueError."""
    if not isinstance(s, str):
        raise ValueError(f"not a rational string: {s!r}")
    s = s.strip()
    if "/" in s:
        p, q = (int(v) for v in s.split("/"))
        if not q:
            raise ValueError(f"zero denominator in {s!r}")
        return rational(p, q)
    return rational(int(s))


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
        if not self.im:
            return str(self.re)
        if self.im < 0:
            return f"{self.re}-{-self.im}*i"
        return f"{self.re}+{self.im}*i"

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
        """Parse 're', 're+im*i' or 're-im*i' with rational parts 'p/q'."""
        s = s.strip().replace(" ", "")
        if "i" not in s:
            return ExactComplex(rational_from_str(s))
        body = s[:-1]
        if body.endswith("*"):
            body = body[:-1]
        # split at the sign separating real and imaginary parts, skipping
        # a leading sign and signs inside the rational slashes
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-/":
                re_part, sign, im_part = body[:k], body[k], body[k + 1 :]
                im = rational_from_str(im_part or "1")
                if sign == "-":
                    im = -im
                return ExactComplex(rational_from_str(re_part), im)
        # pure imaginary, e.g. '1/2*i', 'i' or '-i'
        if body in ("", "+"):
            return ExactComplex(0, 1)
        if body == "-":
            return ExactComplex(0, -1)
        return ExactComplex(0, rational_from_str(body))


CX_ZERO = ExactComplex(0)
CX_ONE = ExactComplex(1)


def as_exact_complex(x) -> ExactComplex:
    if isinstance(x, ExactComplex):
        return x
    if isinstance(x, EXACT_REAL_TYPES) and not isinstance(x, bool):
        return ExactComplex(x)
    if isinstance(x, str):
        return ExactComplex.from_str(x)
    raise ValueError(f"not a Gaussian rational: {x!r}")
