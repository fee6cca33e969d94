"""Exact scalar arithmetic: rationals and Gaussian rationals.

All core computations in this package run over exact rationals.  The
rational backend is chosen once, at import time: gmpy2's compiled ``mpq``
when available, otherwise the pure-Python ``fractions.Fraction``.  Set
``GRASSDESIGN_BACKEND=fraction`` (or ``gmpy2``) to force a choice.

Gaussian rationals (complex numbers with exact rational real and
imaginary parts) are provided by :class:`ExactComplex`; they are the
entry type for exact subspace bases.
"""

from __future__ import annotations

import os

_FORCED = os.environ.get("GRASSDESIGN_BACKEND", "").strip().lower()

if _FORCED == "fraction":
    from fractions import Fraction as _Rational

    BACKEND = "fraction"
elif _FORCED in ("", "gmpy2"):
    try:
        from gmpy2 import mpq as _Rational  # type: ignore[no-redef]

        BACKEND = "gmpy2"
    except ImportError:
        if _FORCED == "gmpy2":
            raise
        from fractions import Fraction as _Rational  # type: ignore[no-redef]

        BACKEND = "fraction"
else:
    raise RuntimeError(
        f"GRASSDESIGN_BACKEND must be 'gmpy2' or 'fraction', got {_FORCED!r}"
    )


def rational(p=0, q=1):
    """Exact rational p/q in the selected backend."""
    return _Rational(p, q)


ZERO = rational(0)
ONE = rational(1)

#: Types accepted wherever an exact real scalar is expected.
EXACT_REAL_TYPES = (int, type(ZERO))

#: Inexact types that switch evaluation to floating point.
FLOAT_TYPES = (float, complex)


def is_exact_real(x) -> bool:
    return isinstance(x, EXACT_REAL_TYPES)


def as_rational(x):
    """Coerce an int, backend rational or 'p/q' string to a backend rational.

    Floats are rejected: exact code paths must never absorb rounding.
    """
    if isinstance(x, type(ZERO)):
        return x
    if isinstance(x, int):
        return rational(x)
    if isinstance(x, str):
        return rational_from_str(x)
    raise TypeError(f"not an exact rational: {x!r}")


def rational_from_str(s: str):
    """Parse 'p' or 'p/q'; malformed text or a zero q raises ValueError."""
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
