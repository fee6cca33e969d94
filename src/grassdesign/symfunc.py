"""Symmetric polynomial evaluation and the normalized-Schur basis.

Evaluation points are plain sequences of scalars.  Exact entries (ints
or backend rationals) keep every operation exact; a single float entry
switches the whole evaluation to floating point.  Schur polynomials are
evaluated through the Jacobi-Trudi determinant, which stays well defined
at repeated coordinates (the all-ones point matters everywhere here).
One evaluator, :func:`normalized_schur_batch`, serves both modes: it
decides the mode once per call, builds e_k and h_k once per point (one
numpy column per k in float mode) and each shape's Jacobi-Trudi index
matrix once, then takes stacked float determinants through
``numpy.linalg.det`` or exact ones through :func:`exactlinalg.det`.
Exact values are fraction-free up to one division: a point y is written
a/d with d the lcm of its denominators, the determinant runs on the
integers a and gives the integer s_sigma(a), and s_sigma is homogeneous,
so X*_sigma(y) is that integer over d^|sigma| and the normalization,
formed as one backend rational.  The scalar evaluators delegate to the
batch.
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


def normalized_schur_batch(sigmas: Sequence[Partition], points) -> np.ndarray:
    """X*_sigma at every point of an (N, m) sequence, one output row per sigma.

    When every coordinate is exact the result is an object array of
    backend rationals, otherwise a float array.  h_k with k < 0 is read
    from an appended zero at index -1 of each point's h list or array.
    """
    top = max((s.parts[0] + s.length_index() - 1 for s in sigmas if not s.is_zero()), default=0)
    if all(is_exact_real(v) for y in points for v in y):
        widths = {len(y) for y in points}
        if len(widths) != 1:
            raise ValueError("points must be an (N, m) array")
        (m,) = widths
        scaled = []  # (h_0(a) .. h_top(a) and h_-1 = 0, d) with y = a/d
        for y in points:
            nums = [int(v.numerator) for v in y]
            dens = [int(v.denominator) for v in y]
            d = math.lcm(*dens)
            a = [p * (d // q) for p, q in zip(nums, dens)]
            h = _complete_terms(_elementary_terms(a, min(top, m), 1), m, top, 1)
            scaled.append((h + [0], d))
        out = np.full((len(sigmas), len(points)), rational(1), dtype=object)

        def jacobi_trudi(idx, sigma):
            norm = schur_norm(sigma)
            num, den = int(norm.numerator), int(norm.denominator)
            return [
                rational(
                    exactlinalg.det([[h[k] for k in row] for row in idx]) * den,
                    d**sigma.weight * num,
                )
                for h, d in scaled
            ]

    else:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be an (N, m) array")
        m = pts.shape[1]
        one = np.ones(len(pts))
        e = _elementary_terms(pts.T, min(top, m), one)
        h = np.stack(_complete_terms(e, m, top, one) + [one * 0], axis=1)
        out = np.ones((len(sigmas), len(pts)))

        def jacobi_trudi(idx, sigma):
            return np.linalg.det(h[:, idx]) / float(schur_norm(sigma))

    for r, sigma in enumerate(sigmas):
        if sigma.m != m:
            raise ValueError(f"partition ambient {sigma.m} vs point length {m}")
        ell = sigma.length_index()
        if ell:
            idx = [[max(sigma.parts[i] - i + j, -1) for j in range(ell)] for i in range(ell)]
            out[r] = jacobi_trudi(idx, sigma)
    return out


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
        columns = normalized_schur_batch(list(self.coeffs), points).T
        coeffs = list(self.coeffs.values())
        return [sum((c * v for c, v in zip(coeffs, column)), rational(0)) for column in columns]

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
