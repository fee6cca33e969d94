"""Symmetric polynomial evaluation and the normalized-Schur basis.

Evaluation points are plain sequences of scalars.  Exact entries (ints
or backend rationals) keep every operation exact; a single float entry
switches the whole evaluation to floating point.  Schur polynomials are
evaluated through the Jacobi-Trudi determinant, which stays well defined
at repeated coordinates (the all-ones point matters everywhere here).
:func:`normalized_schur_batch` evaluates many shapes at many float points
in one numpy pass: the same e/h recurrences run column-wise, and the
stacked Jacobi-Trudi matrices go through ``numpy.linalg.det``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from . import exactlinalg
from .partitions import Partition
from .scalars import as_rational, is_exact_real, rational, rational_to_str


def prepare_point(y: Sequence) -> Tuple[tuple, bool]:
    """Coerce an evaluation point, returning (values, exact_flag)."""
    vals = tuple(y)
    if all(is_exact_real(v) for v in vals):
        return tuple(as_rational(v) for v in vals), True
    return tuple(float(v) for v in vals), False


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


def complete_all(y: Sequence, upto: int) -> list:
    """h_0 .. h_upto via the exact recurrence h_k = sum_j (-1)^{j-1} e_j h_{k-j}."""
    vals, exact = prepare_point(y)
    m = len(vals)
    one = rational(1) if exact else 1.0
    return _complete_terms(_elementary_terms(vals, min(upto, m), one), m, upto, one)


def schur_eval(mu: Partition, y: Sequence):
    """Schur polynomial via the Jacobi-Trudi determinant det(h_{mu_i - i + j})."""
    vals, exact = prepare_point(y)
    if mu.m != len(vals):
        raise ValueError(f"partition ambient {mu.m} vs point length {len(vals)}")
    ell = mu.length_index()
    if ell == 0:
        return rational(1) if exact else 1.0
    top = mu.parts[0] + ell - 1
    h = complete_all(vals, top)
    zero = rational(0) if exact else 0.0

    def h_at(k):
        return h[k] if 0 <= k <= top else zero

    rows = [[h_at(mu.parts[i] - (i + 1) + (j + 1)) for j in range(ell)] for i in range(ell)]
    return exactlinalg.det(rows)


def schur_norm(mu: Partition):
    """Value at the all-ones point, prod_{i<j} (mu_i - mu_j + j - i)/(j - i)."""
    out = rational(1)
    parts = mu.parts
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            out = out * (parts[i] - parts[j] + j - i) / (j - i)
    return out


def normalized_schur_eval(mu: Partition, y: Sequence):
    """Schur polynomial scaled to equal 1 at the all-ones point."""
    vals, exact = prepare_point(y)
    norm = schur_norm(mu)
    val = schur_eval(mu, vals)
    return val / norm if exact else val / float(norm)


def normalized_schur_batch(sigmas: Sequence[Partition], points) -> np.ndarray:
    """X*_sigma at every row of a float (N, m) array, one output row per sigma.

    The float counterpart of :func:`normalized_schur_eval` for many shapes
    at many points: e_k and h_k are built column-wise once, up to the
    largest index any Jacobi-Trudi matrix needs.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be an (N, m) array")
    count, m = pts.shape
    for sigma in sigmas:
        if sigma.m != m:
            raise ValueError(f"partition ambient {sigma.m} vs point length {m}")
    top = max((s.parts[0] + s.length_index() - 1 for s in sigmas if not s.is_zero()), default=0)
    one = np.ones(count)
    e = _elementary_terms(pts.T, min(top, m), one)
    # the appended zero column, index -1, stands for every h_k with k < 0
    h = np.stack(_complete_terms(e, m, top, one) + [one * 0], axis=1)
    out = np.ones((len(sigmas), count))
    for r, sigma in enumerate(sigmas):
        ell = sigma.length_index()
        if ell:
            idx = [[max(sigma.parts[i] - i + j, -1) for j in range(ell)] for i in range(ell)]
            out[r] = np.linalg.det(h[:, idx]) / float(schur_norm(sigma))
    return out


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
        vals, exact = prepare_point(y)
        if len(vals) != self.m:
            raise ValueError(f"point length {len(vals)} vs ambient {self.m}")
        total = rational(0) if exact else 0.0
        for sigma, c in self.coeffs.items():
            coeff = c if exact else float(c)
            total = total + coeff * normalized_schur_eval(sigma, vals)
        return total

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
