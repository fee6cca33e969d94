"""Symmetric polynomial evaluation and the normalized-Schur basis.

Evaluation points are plain sequences of scalars.  Exact entries (ints
or ``Fraction``) keep every operation exact; a single float entry
switches the whole evaluation to floating point.

Both modes work in the e-basis.  Each s_sigma is expanded once, and
cached, as an integer polynomial in e_1 .. e_m
(:func:`schur_e_polynomial`): the dual Jacobi-Trudi determinant
det(e_(sigma'_i - i + j)) over monomial entries.  A point y is written
a/d and enters as its homogeneous e-coordinates (d, e_1(a) .. e_m(a)),
e_k(a) = d^k e_k(y); s_sigma is homogeneous, so its polynomial at e(a)
is the integer s_sigma(a) = d^|sigma| s_sigma(y), and X*_sigma(y) is
that integer over d^|sigma| and the normalization.  No determinant is
taken per point, and repeated coordinates need no care.

Points reach the evaluators as one column stack, entry i of every
column belonging to point i, built by :func:`_columns`, which also
decides the mode.  Exact columns are numpy object arrays of Python ints
(d, e_1(a), ..), with d the lcm of the coordinates' denominators or the
d that :class:`ScaledPoints` gives.  One exact evaluator,
:func:`exact_schur_sum`, reads them: it folds weighted shapes into one
e-polynomial, each s_sigma lifted by a power of d, evaluates it once on
the columns and lifts every point to one denominator q, so the values
are an integer column t over q, with no ``Fraction`` built.
:func:`normalized_schur_batch` calls it once per sigma with weight
1/s_sigma(1), and :meth:`SchurExpansion.numerators` once with the
expansion's weights.  Design defects take none of this: they read pair
invariants through :func:`zonal.kernel_sums`.

Float mode evaluates the same cached polynomials on float columns
(1, e_1, .., e_m), the e_k of the coordinates from the same
:func:`_elementary_terms`.  On [0, 1]^m, where |e_k| <= C(m, k), the
rounding error of X*_sigma is at most a few eps times the number of
terms times R_sigma = sum |coefficient| prod C(m, k)^(exponent) /
s_sigma(1, .., 1).  The scalar evaluators delegate to the batch.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import Dict, Iterable, Sequence

import numpy as np

from .partitions import Partition, as_index
from .scalars import as_rational, is_exact_real, rational


def _elementary_terms(vals, upto: int, one) -> list:
    """e_0 .. e_upto of the coordinates ``vals``, scalars or numpy columns."""
    e = [one] + [one * 0] * upto
    top = 0
    for v in vals:
        top = min(top + 1, upto)
        for j in range(top, 0, -1):
            e[j] = e[j] + v * e[j - 1]
    return e


@lru_cache(maxsize=None)
def schur_norm(mu: Partition):
    """Value at the all-ones point, prod_{i<j} (mu_i - mu_j + j - i)/(j - i).

    An integer, s_mu(1, .., 1), returned as a ``Fraction`` and cached per shape.
    """
    parts = mu.parts
    pairs = list(combinations(range(len(parts)), 2))
    num = math.prod(parts[i] - parts[j] + j - i for i, j in pairs)
    return rational(num, math.prod(j - i for i, j in pairs))


def _top_index(sigmas) -> int:
    """Largest index sigma_1 + l(sigma) - 1 that a Jacobi-Trudi matrix of the shapes reads.

    It bounds both h_k in det(h_(sigma_i - i + j)) and e_k in the dual
    det(e_(sigma'_i - i + j)), so the e-polynomials of the shapes read no
    e_k past it.
    """
    return max((s.parts[0] + s.length - 1 for s in sigmas if not s.is_zero()), default=0)


@lru_cache(maxsize=None)
def schur_e_polynomial(sigma: Partition) -> tuple:
    """s_sigma as an integer polynomial in e_1 .. e_m, as ((exponents, coefficient), ..).

    The dual Jacobi-Trudi determinant det(e_(sigma'_i - i + j)), of size
    sigma_1, expanded row by row.  Every entry is one monomial (e_0 = 1,
    e_k = 0 outside 0 .. m), so a partial expansion is one polynomial per
    set S of used columns, and taking column j next multiplies it by the
    entry and by (-1)^#{s in S : s > j}.  An exponent tuple has m + 1
    slots, for e_0 .. e_m; slot 0 stays 0 here and holds a power of d
    once shapes of different weights are folded together.
    """
    conj = sigma.conjugate().parts
    m = sigma.m
    layer = {0: {(0,) * (m + 1): 1}}
    for i, c in enumerate(conj):
        grown = {}
        for used, poly in layer.items():
            # the entries e_0 .. e_m of row i sit in columns i - c .. i - c + m
            for j in range(max(i - c, 0), min(i - c + m + 1, len(conj))):
                k = c - i + j
                if used >> j & 1:
                    continue
                sign = -1 if bin(used >> j).count("1") % 2 else 1
                target = grown.setdefault(used | 1 << j, {})
                for mono, coeff in poly.items():
                    if k:
                        mono = mono[:k] + (mono[k] + 1,) + mono[k + 1 :]
                    target[mono] = target.get(mono, 0) + sign * coeff
        layer = grown
    (poly,) = layer.values()
    return tuple((mono, coeff) for mono, coeff in poly.items() if coeff)


def _evaluate(poly, stack):
    """Value of an e-polynomial at the column stack, stack[k] standing for e_k."""
    return sum(c * math.prod([stack[k] ** x for k, x in enumerate(mono) if x]) for mono, c in poly)


class ScaledPoints(list):
    """Exact points y = a / d as (a, d) pairs: integer numerators a, positive d.

    The batched evaluators take it in place of ``Fraction`` tuples and use
    each d as given, with no lcm of the coordinates' denominators.
    """

    def point(self, i: int) -> tuple:
        """Point i as a ``Fraction`` tuple."""
        a, d = self[i]
        return tuple(rational(k, d) for k in a)


def scaled_point(y) -> tuple:
    """(a, d) with y = a / d for an exact point y, d the lcm of its denominators."""
    d = math.lcm(*(v.denominator for v in y))
    return [v.numerator * (d // v.denominator) for v in y], d


def _columns(points, upto: int, m: int | None = None) -> tuple:
    """Points as e-columns up to e_upto, whether they are exact, and their length m.

    Exact coordinates y = a/d give (d, e_1(a) .. e_upto(a)) as object
    arrays of ints, d the lcm of y's denominators or the one a
    :class:`ScaledPoints` gives; any float coordinate gives float columns
    (1, e_1(y) .. e_upto(y)) for every point.  Entry i of every column
    belongs to point i.  One walk over the points checks that they share
    a length, which must be ``m`` when it is given: the length of the
    numerators a for :class:`ScaledPoints`.
    """
    given = isinstance(points, ScaledPoints)
    widths = {len(a) for a, _ in points} if given else {len(y) for y in points}
    if m is not None and widths - {m}:
        raise ValueError(f"point length {min(widths - {m})} vs ambient {m}")
    if len(widths) != 1:
        raise ValueError("points must be an (N, m) array")
    (width,) = widths
    if not (given or all(is_exact_real(v) for y in points for v in y)):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be an (N, m) array")
        return _elementary_terms(pts.T, min(upto, width), np.ones(len(pts))), False, width
    if not given:
        points = [scaled_point(y) for y in points]
    numerators = np.empty((len(points), width), dtype=object)
    numerators[:] = [a for a, _ in points]
    e = _elementary_terms(numerators.T, min(upto, width), 1)
    e[0] = np.array([d for _, d in points], dtype=object)
    return e, True, width


def exact_schur_sum(weighted, stack) -> tuple:
    """sum of w_sigma s_sigma(y) over the (sigma, w_sigma) pairs, as integers t over one q > 0.

    ``stack`` holds exact points y = a/d as the columns (d, e_1(a), ..,
    e_k(a)) that :func:`_columns` builds,
    k at least min(top, m) for the largest Jacobi-Trudi index top of the
    shapes; the weights are exact rationals.  The value at point i is
    t[i] / q, not reduced, and no ``Fraction`` is built.
    """
    # w_sigma s_sigma(y) = w_sigma s_sigma(a) / d^|sigma|: over the common
    # denominator L d^top, with top the largest weight, the sum is one
    # integer polynomial in (d, e_1(a), ..), each s_sigma lifted by
    # d^(top - |sigma|) in the slot of e_0
    common = math.lcm(*(w.denominator for _, w in weighted))
    top = max((sigma.weight for sigma, _ in weighted), default=0)
    folded = {}
    for sigma, w in weighted:
        k, lift = w.numerator * (common // w.denominator), top - sigma.weight
        for mono, c in schur_e_polynomial(sigma):
            mono = (mono[0] + lift,) + mono[1:]
            folded[mono] = folded.get(mono, 0) + k * c
    d = stack[0]
    # d * 0 keeps t a column when the folded polynomial is a bare constant
    t = d * 0 + _evaluate([(mono, c) for mono, c in folded.items() if c], stack)
    # point i sits over common d_i^top; lift every point to the lcm of those
    powers = {x**top for x in set(d)}
    scale = math.lcm(*powers)
    if len(powers) > 1:
        t = t * (scale // d**top)
    return t, common * scale


def normalized_schur_batch(sigmas: Sequence[Partition], points) -> np.ndarray:
    """X*_sigma at every point of an (N, m) sequence, one output row per sigma.

    Exact coordinates give an object array of ``Fraction``, one
    :func:`exact_schur_sum` per sigma; any float one a float array.
    """
    stack, exact, m = _columns(points, _top_index(sigmas))
    out = np.empty((len(sigmas), len(stack[0])), dtype=object if exact else float)
    for r, sigma in enumerate(sigmas):
        if sigma.m != m:
            raise ValueError(f"partition ambient {sigma.m} vs point length {m}")
        if exact:
            t, q = exact_schur_sum([(sigma, 1 / schur_norm(sigma))], stack)
            out[r] = [rational(x, q) for x in t]
        else:
            out[r] = _evaluate(schur_e_polynomial(sigma), stack)
            out[r] /= float(schur_norm(sigma))
    return out


def normalized_schur_eval(mu: Partition, y: Sequence):
    """Schur polynomial scaled to equal 1 at the all-ones point."""
    return normalized_schur_batch([mu], [tuple(y)])[0, 0]


def schur_eval(mu: Partition, y: Sequence):
    """Schur polynomial s_mu(y), i.e. X*_mu(y) times :func:`schur_norm`."""
    return schur_norm(mu) * normalized_schur_eval(mu, y)


def add_terms(store: dict, terms, factor=1) -> dict:
    """``store`` plus factor times the (sigma, c) ``terms``, summed in place and returned.

    A shape whose sum stays nonzero keeps its place, one whose sum
    cancels is dropped, and a new one, or one that cancelled before,
    goes to the end: float evaluation sums the terms in this order.
    """
    for sigma, c in terms:
        c = store.get(sigma, 0) + factor * c
        if c:
            store[sigma] = c
        else:
            store.pop(sigma, None)
    return store


class SchurExpansion:
    """Finite linear combination of normalized Schur polynomials.

    Coefficients are exact rationals keyed by partitions of one ambient
    length; zero coefficients are never stored.
    """

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: Dict[Partition, object] | Iterable = ()):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        terms = []
        for sigma, c in items:
            if sigma.m != m:
                raise ValueError(f"ambient mismatch: {sigma} in expansion over {m} variables")
            terms.append((sigma, as_rational(c)))
        self.m = m
        self.coeffs = add_terms({}, terms)

    @classmethod
    def _built(cls, m: int, coeffs: dict) -> "SchurExpansion":
        """Nonzero ``Fraction`` coefficients over shapes of ambient m that a builder has made valid, taken as is."""
        expansion = object.__new__(cls)
        expansion.m = m
        expansion.coeffs = coeffs
        return expansion

    def coeff(self, sigma: Partition):
        return self.coeffs.get(sigma, rational(0))

    def support(self):
        return sorted(self.coeffs, key=Partition.sort_key)

    def terms(self):
        return [(sigma, self.coeffs[sigma]) for sigma in self.support()]

    def evaluate(self, y: Sequence):
        return self.evaluate_batch([y])[0]

    def evaluate_batch(self, points) -> list:
        """Values at every point of an (N, m) sequence or :class:`ScaledPoints`, from one batched evaluation."""
        sigmas = list(self.coeffs)
        stack, exact, _ = _columns(points, _top_index(sigmas), self.m)
        if exact:
            t, q = exact_schur_sum(self._weighted(), stack)
            return [rational(x, q) for x in t]
        columns = normalized_schur_batch(sigmas, points).T
        coeffs = list(self.coeffs.values())
        return [sum((c * v for c, v in zip(coeffs, column)), 0.0) for column in columns]

    def numerators(self, points) -> tuple:
        """Values at exact points as (t, q): an object column of integers t over one q > 0.

        The value at point i is t[i] / q, not reduced; no ``Fraction`` is
        built.  Points are an (N, m) sequence of exact values or
        :class:`ScaledPoints`.
        """
        stack, exact, _ = _columns(points, _top_index(list(self.coeffs)), self.m)
        if not exact:
            raise ValueError("integer numerators need exact points")
        return exact_schur_sum(self._weighted(), stack)

    def _weighted(self) -> list:
        """(sigma, c_sigma / s_sigma(1)) pairs: the expansion as a weighted sum of s_sigma."""
        return [(sigma, c / schur_norm(sigma)) for sigma, c in self.coeffs.items()]

    def __add__(self, other: "SchurExpansion") -> "SchurExpansion":
        if other.m != self.m:
            raise ValueError("ambient mismatch in expansion sum")
        return SchurExpansion(self.m, list(self.coeffs.items()) + list(other.coeffs.items()))

    def __eq__(self, other):
        return (
            isinstance(other, SchurExpansion)
            and self.m == other.m
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        body = ", ".join(f"{s.parts}: {c}" for s, c in self.terms())
        return f"SchurExpansion(m={self.m}, {{{body}}})"

    def to_json(self) -> dict:
        return {"m": self.m, "terms": [{"partition": list(s.parts), "coeff": str(c)} for s, c in self.terms()]}

    @staticmethod
    def from_json(data: dict) -> "SchurExpansion":
        m = as_index(data["m"])
        return SchurExpansion(
            m,
            [
                (Partition(t["partition"], m=m), as_rational(t["coeff"]))
                for t in data["terms"]
            ],
        )
