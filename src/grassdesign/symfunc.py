"""Symmetric polynomial evaluation and the normalized-Schur basis.

The package evaluates Schur polynomials at one kind of point: exact
points y = a/d given as :class:`ScaledPoints`, the grid and samples on
which ``check-nonneg`` evaluates a certificate.  Design defects take
none of this: they read pair invariants through
:func:`zonal.kernel_sums`.

Evaluation works in the e-basis.  Each s_sigma is expanded once, and
cached, as an integer polynomial in e_1 .. e_m
(:func:`schur_e_polynomial`): the dual Jacobi-Trudi determinant
det(e_(sigma'_i - i + j)) over monomial entries.  A point y is written
a/d and enters as its homogeneous e-coordinates (d, e_1(a) .. e_m(a)),
e_k(a) = d^k e_k(y); s_sigma is homogeneous, so its polynomial at e(a)
is the integer s_sigma(a) = d^|sigma| s_sigma(y), and X*_sigma(y) is
that integer over d^|sigma| and the normalization.  No determinant is
taken per point, and repeated coordinates need no care.

Points reach the evaluator as one column stack, entry i of every
column belonging to point i, built by :func:`_columns`: numpy object
arrays of Python ints (d, e_1(a), ..), with each d as the
:class:`ScaledPoints` give it.  :func:`exact_schur_sum` reads them: it
folds weighted shapes into one e-polynomial, each s_sigma lifted by a
power of d, evaluates it once on the columns and lifts every point to
one denominator q, so the values are an integer column t over q, with
no ``Fraction`` built.  :meth:`SchurExpansion.numerators` calls it once
with the expansion's weights.  Evaluators at single points, at
``Fraction`` tuples and at float points are test oracles
(``tests/exact_oracles.py``).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import Dict, Iterable

import numpy as np

from .partitions import Partition
from .scalars import as_rational, rational


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

    :meth:`SchurExpansion.numerators` takes exact points in this form and
    uses each d as given, with no lcm of the coordinates' denominators.
    """

    def point(self, i: int) -> tuple:
        """Point i as a ``Fraction`` tuple."""
        a, d = self[i]
        return tuple(rational(k, d) for k in a)


def _columns(points: ScaledPoints, upto: int, m: int) -> list:
    """Exact points y = a/d as the e-columns (d, e_1(a) .. e_upto(a)), object arrays of ints.

    Entry i of every column belongs to point i, and each d is the one the
    :class:`ScaledPoints` give.  Every a must have length m.
    """
    wrong = {len(a) for a, _ in points} - {m}
    if wrong:
        raise ValueError(f"point length {min(wrong)} vs ambient {m}")
    numerators = np.empty((len(points), m), dtype=object)
    numerators[:] = [a for a, _ in points]
    e = _elementary_terms(numerators.T, min(upto, m), 1)
    e[0] = np.array([d for _, d in points], dtype=object)
    return e


def exact_schur_sum(weighted, stack) -> tuple:
    """sum of w_sigma s_sigma(y) over the (sigma, w_sigma) pairs, as integers t over one q > 0.

    ``stack`` holds exact points y = a/d as the columns (d, e_1(a), ..,
    e_k(a)) that :func:`_columns` builds, k at least min(top, m) for the
    largest Jacobi-Trudi index top of the shapes; the weights are exact
    rationals.  The value at point i is t[i] / q, not reduced, and no
    ``Fraction`` is built.
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


def add_terms(store: dict, terms, factor=1) -> dict:
    """``store`` plus factor times the (sigma, c) ``terms``, summed in place and returned.

    A shape whose sum stays nonzero keeps its place, one whose sum
    cancels is dropped, and a new one, or one that cancelled before,
    goes to the end: the float evaluation oracle of the tests sums the
    terms in this order.
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

    def numerators(self, points: ScaledPoints) -> tuple:
        """Values at exact points as (t, q): an object column of integers t over one q > 0.

        The value at point i is t[i] / q, not reduced; no ``Fraction`` is
        built.
        """
        stack = _columns(points, _top_index(list(self.coeffs)), self.m)
        return exact_schur_sum(self._weighted(), stack)

    def _weighted(self) -> list:
        """(sigma, c_sigma / s_sigma(1)) pairs: the expansion as a weighted sum of s_sigma."""
        return [(sigma, c / schur_norm(sigma)) for sigma, c in self.coeffs.items()]

    def __eq__(self, other):
        return (
            isinstance(other, SchurExpansion)
            and self.m == other.m
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        body = ", ".join(f"{s.parts}: {c}" for s, c in self.terms())
        return f"SchurExpansion(m={self.m}, {{{body}}})"
