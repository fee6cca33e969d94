"""Symmetric polynomial evaluation and the normalized-Schur basis.

Evaluation points are plain sequences of scalars.  Exact entries (ints
or ``Fraction``) keep every operation exact; a single float entry
switches the whole evaluation to floating point.  Schur polynomials are
evaluated through the Jacobi-Trudi determinant, which stays well defined
at repeated coordinates (the all-ones point matters everywhere here).
One evaluator, :func:`normalized_schur_batch`, serves both modes: it
decides the mode once per call, builds e_k and h_k once per point (one
numpy column per k in float mode) and each shape's Jacobi-Trudi index
matrix once, then takes stacked float determinants through
``numpy.linalg.det`` or exact ones through :func:`exactlinalg.det`.
Exact values are fraction-free up to one division: a point y is written
a/d, the determinant runs on integers and gives s_sigma(a), and s_sigma
is homogeneous, so X*_sigma(y) is that integer over d^|sigma| and the
normalization, formed as one ``Fraction``.  The exact core starts from
the integers e_k(a) = d^k e_k(y) and d, so a point enters either by its
coordinates (d the lcm of their denominators) or, through
:func:`normalized_schur_at_invariants`, by its e_k alone (d the lcm of
their denominators), which is how exact pair classes enter without
their angles.  The scalar evaluators delegate to the batch, and
:meth:`SchurExpansion.evaluate_batch` sums an expansion over one common
denominator per point.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Dict, Iterable, Sequence

import numpy as np

from . import exactlinalg
from .partitions import Partition
from .scalars import as_rational, is_exact_real, rational, rational_to_str


def _elementary_terms(vals, upto: int, one) -> list:
    """e_0 .. e_upto of the coordinates ``vals``, scalars or numpy columns."""
    e = [one] + [one * 0] * upto
    top = 0
    for v in vals:
        top = min(top + 1, upto)
        for j in range(top, 0, -1):
            e[j] = e[j] + v * e[j - 1]
    return e


def _complete_terms(e: list, m: int, upto: int, one) -> list:
    """h_0 .. h_upto from e_0 .. e_min(upto, m) of m coordinates."""
    h = [one]
    for k in range(1, upto + 1):
        acc = one * 0
        for j in range(1, min(k, m) + 1):
            term = e[j] * h[k - j]
            acc = acc + term if j % 2 else acc - term
        h.append(acc)
    return h


def schur_norm(mu: Partition):
    """Value at the all-ones point, prod_{i<j} (mu_i - mu_j + j - i)/(j - i)."""
    parts = mu.parts
    pairs = list(combinations(range(len(parts)), 2))
    num = math.prod(parts[i] - parts[j] + j - i for i, j in pairs)
    return rational(num, math.prod(j - i for i, j in pairs))


def _top_index(sigmas) -> int:
    """Largest h_k index the Jacobi-Trudi matrices of the shapes read."""
    return max((s.parts[0] + s.length_index() - 1 for s in sigmas if not s.is_zero()), default=0)


def _jacobi_trudi_index(sigma: Partition) -> list:
    """h indices of the Jacobi-Trudi matrix of sigma; -1 reads an appended zero."""
    ell = sigma.length_index()
    return [[max(sigma.parts[i] - i + j, -1) for j in range(ell)] for i in range(ell)]


def _scaled_points(points, upto: int):
    """Exact points y = a/d as (e_0(a) .. e_upto(a), d), d the lcm of y's denominators.

    Returns None when some coordinate is a float.
    """
    if not all(is_exact_real(v) for y in points for v in y):
        return None
    widths = {len(y) for y in points}
    if len(widths) != 1:
        raise ValueError("points must be an (N, m) array")
    (m,) = widths
    scaled = []
    for y in points:
        d = math.lcm(*(v.denominator for v in y))
        a = [v.numerator * (d // v.denominator) for v in y]
        scaled.append((_elementary_terms(a, min(upto, m), 1), d))
    return scaled


def _scaled_invariants(invariants) -> list:
    """Points given by (e_1, .., e_m) of their coordinates, as (d^k e_k, d).

    d is the lcm of the denominators of the e_k; every d^k e_k is then an
    integer, and a point of coordinates y with these e_k is y = a/d with
    e_k(a) = d^k e_k.
    """
    scaled = []
    for e in invariants:
        d = math.lcm(*(v.denominator for v in e))
        ints = [v.numerator * (d // v.denominator) * d ** (k - 1) for k, v in enumerate(e, 1)]
        scaled.append(([1] + ints, d))
    return scaled


def _schur_numerators(sigmas: Sequence[Partition], scaled: list, m: int) -> list:
    """Integers s_sigma(a) = d^|sigma| s_sigma(y), one row per sigma, at scaled points.

    ``scaled`` holds (e_0(a) .. e_k(a), d) per point, with k at least
    min(top, m) for the largest h index top the shapes read.
    """
    top = _top_index(sigmas)
    hs = [_complete_terms(e, m, top, 1) + [0] for e, _ in scaled]
    rows = []
    for sigma in sigmas:
        if sigma.m != m:
            raise ValueError(f"partition ambient {sigma.m} vs point length {m}")
        idx = _jacobi_trudi_index(sigma)
        if idx:
            rows.append([exactlinalg.det([[h[k] for k in row] for row in idx]) for h in hs])
        else:
            rows.append([1] * len(hs))
    return rows


def _normalized_exact(sigmas: Sequence[Partition], scaled: list, m: int) -> np.ndarray:
    """X*_sigma at scaled exact points: s_sigma(a) over d^|sigma| and the normalization."""
    out = np.empty((len(sigmas), len(scaled)), dtype=object)
    for r, (sigma, nums) in enumerate(zip(sigmas, _schur_numerators(sigmas, scaled, m))):
        norm = schur_norm(sigma)
        out[r] = [
            rational(s * norm.denominator, d**sigma.weight * norm.numerator)
            for s, (_, d) in zip(nums, scaled)
        ]
    return out


def normalized_schur_batch(sigmas: Sequence[Partition], points) -> np.ndarray:
    """X*_sigma at every point of an (N, m) sequence, one output row per sigma.

    When every coordinate is exact the result is an object array of
    ``Fraction``, otherwise a float array.  h_k with k < 0 is read
    from an appended zero at index -1 of each point's h list or array.
    """
    top = _top_index(sigmas)
    scaled = _scaled_points(points, top)
    if scaled is not None:
        return _normalized_exact(sigmas, scaled, len(points[0]))

    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be an (N, m) array")
    m = pts.shape[1]
    one = np.ones(len(pts))
    e = _elementary_terms(pts.T, min(top, m), one)
    h = np.stack(_complete_terms(e, m, top, one) + [one * 0], axis=1)
    out = np.ones((len(sigmas), len(pts)))
    for r, sigma in enumerate(sigmas):
        if sigma.m != m:
            raise ValueError(f"partition ambient {sigma.m} vs point length {m}")
        idx = _jacobi_trudi_index(sigma)
        if idx:
            out[r] = np.linalg.det(h[:, idx]) / float(schur_norm(sigma))
    return out


def normalized_schur_at_invariants(sigmas: Sequence[Partition], invariants) -> np.ndarray:
    """X*_sigma at exact points given by the tuples (e_1, .., e_m) of ``Fraction``.

    X*_sigma is symmetric, so the e_k of a point determine its value: no
    coordinate, and no root, is needed.  Same object array as
    :func:`normalized_schur_batch` at the points themselves.
    """
    invariants = [tuple(e) for e in invariants]
    widths = {len(e) for e in invariants}
    if len(widths) != 1:
        raise ValueError("invariants must be an (N, m) array")
    return _normalized_exact(sigmas, _scaled_invariants(invariants), widths.pop())


def normalized_schur_eval(mu: Partition, y: Sequence):
    """Schur polynomial scaled to equal 1 at the all-ones point."""
    return normalized_schur_batch([mu], [tuple(y)])[0, 0]


def schur_eval(mu: Partition, y: Sequence):
    """Schur polynomial s_mu(y), i.e. X*_mu(y) times :func:`schur_norm`."""
    return schur_norm(mu) * normalized_schur_eval(mu, y)


class SchurExpansion:
    """Finite linear combination of normalized Schur polynomials.

    Coefficients are exact rationals keyed by partitions of one ambient
    length; zero coefficients are never stored.
    """

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: Dict[Partition, object] | Iterable = ()):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        store: Dict[Partition, object] = {}
        for sigma, c in items:
            if sigma.m != m:
                raise ValueError(f"ambient mismatch: {sigma} in expansion over {m} variables")
            c = as_rational(c)
            if c:
                store[sigma] = store.get(sigma, rational(0)) + c
                if not store[sigma]:
                    del store[sigma]
        self.m = m
        self.coeffs = store

    def coeff(self, sigma: Partition):
        return self.coeffs.get(sigma, rational(0))

    def support(self):
        return sorted(self.coeffs, key=Partition.sort_key)

    def terms(self):
        return [(sigma, self.coeffs[sigma]) for sigma in self.support()]

    def evaluate(self, y: Sequence):
        return self.evaluate_batch([y])[0]

    def evaluate_batch(self, points) -> list:
        """Values at every point of an (N, m) sequence, from one batched evaluation."""
        points = [tuple(y) for y in points]
        for y in points:
            if len(y) != self.m:
                raise ValueError(f"point length {len(y)} vs ambient {self.m}")
        sigmas = list(self.coeffs)
        scaled = _scaled_points(points, _top_index(sigmas))
        if scaled is None:
            columns = normalized_schur_batch(sigmas, points).T
            coeffs = list(self.coeffs.values())
            return [
                sum((c * v for c, v in zip(coeffs, column)), rational(0)) for column in columns
            ]
        # c_sigma X*_sigma(y) = (c_sigma / norm_sigma) s_sigma(a) / d^|sigma|: over
        # the common denominator L d^w of the shapes, with w the largest
        # weight, each value is one integer sum
        weights = [c / schur_norm(s) for s, c in self.coeffs.items()]
        common = math.lcm(*(w.denominator for w in weights))
        ints = [w.numerator * (common // w.denominator) for w in weights]
        top = max((s.weight for s in sigmas), default=0)
        lifts = [top - s.weight for s in sigmas]
        rows = _schur_numerators(sigmas, scaled, self.m)
        values = []
        for p, (_, d) in enumerate(scaled):
            powers = [d**k for k in range(top + 1)]
            total = sum(k * row[p] * powers[j] for k, row, j in zip(ints, rows, lifts))
            values.append(rational(total, common * powers[top]))
        return values

    def at_ones(self):
        return sum(self.coeffs.values(), rational(0))

    def scaled(self, factor) -> "SchurExpansion":
        factor = as_rational(factor)
        return SchurExpansion(self.m, [(s, c * factor) for s, c in self.coeffs.items()])

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
        return {
            "m": self.m,
            "terms": [
                {"partition": s.to_json(), "coeff": rational_to_str(c)}
                for s, c in self.terms()
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "SchurExpansion":
        m = int(data["m"])
        return SchurExpansion(
            m,
            [
                (Partition(t["partition"], m=m), as_rational(t["coeff"]))
                for t in data["terms"]
            ],
        )
