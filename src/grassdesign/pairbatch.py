"""Pair invariants of exact points of G(m, n), all pairs of a batch at once.

Each exact point holds Gaussian-integer rows A and its Gram inverse in
lowest terms, G^-1 = N / D.  For a pair (a, b) with cross-Gram
C = A_a A_b^H, the matrix M = N_a C N_b C^H has the principal angles
times D = D_a D_b as eigenvalues, so its elementary symmetric values
e_k(M) = D^k e_k are integers in [0, C(m, k) D^k].  They are found
modulo word-size primes, whose product exceeds twice that range for the
largest D of the batch, in int64 arithmetic with the primes as a batch
axis; the prime width follows from n so that no sum overflows.  Pairs
are processed in chunks of at most PAIR_CHUNK_ELEMENTS array entries.

Antipodal pairs, whose angles are all 0 or 1, are certified first by
one trace identity: the angles y_i lie in [0, 1], so
D tr M - tr M^2 = D^2 sum y_i (1 - y_i) is an integer in [0, m D^2 / 4]
that vanishes exactly for them.  The primes exceed that range too, so
the test is exact on residues, and such a pair's invariant
(C(w, 1), .., C(w, m)) follows from w = tr M / D in 0..m, with no
Newton's identities or lifting.  The other pairs are grouped by
(D, residues), and every group is lifted once by the Chinese remainder
sum, so the Python-integer work grows with the number of distinct
invariants, not of pairs.  A lifted value outside its range, a
certified pair with no w, or a nonzero imaginary residue of a power sum
raises.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .exactlinalg import crt_lift, elementary_mod, gaussian_mul_mod, moduli, modulus_bits, residues, trace_mod
from .scalars import rational

# Most int64 entries one array of a pair chunk holds, over all primes:
# memory stays flat in the number of pairs.
PAIR_CHUNK_ELEMENTS = 1 << 15


def _gaussian_residues(matrices, primes, shape) -> tuple:
    """Residues of Gaussian-integer matrices as an (re, im) pair of (P,) + shape arrays."""
    flat = [v for mat in matrices for row in mat for v in row]
    # all real parts, then all imaginary parts: each part is contiguous
    # per prime, which np.take reads about 4x faster than interleaved pairs
    res = residues([re for re, _ in flat] + [im for _, im in flat], primes).reshape(len(primes), 2, *shape)
    return res[:, 0], res[:, 1]


class _PairBatch:
    """Residues of the points of a batch, modulo primes enough for every pair invariant."""

    def __init__(self, points: Sequence):
        m, n, k = points[0].m, points[0].n, len(points)
        self.m = m
        where = {}
        self.den_index = np.array([where.setdefault(p.inv_den, len(where)) for p in points], dtype=np.int64)
        self.dens = list(where)
        # e_k(M) = D^k e_k lies in [0, C(m, k) D^k] with D = D_a D_b, so
        # a product of primes above twice that tells every e_k(M) apart;
        # the certificate's D^2 sum y_i (1 - y_i) <= m D^2 / 4 needs more
        # only at m = 1
        top = max(self.dens) ** 2
        bound = max([m * top**2 // 4] + [math.comb(m, j) * top**j for j in range(1, m + 1)])
        self.primes = moduli(modulus_bits(2 * n), 2 * bound + 1)
        self.q = np.array(self.primes, dtype=np.int64).reshape(-1, 1, 1, 1)
        self.den_res = residues([p.inv_den for p in points], self.primes)
        self.rows = _gaussian_residues([p.rows for p in points], self.primes, (k, m, n))
        self.inv = _gaussian_residues([p.inv_num for p in points], self.primes, (k, m, m))

    def keys(self, first: np.ndarray, second: np.ndarray) -> tuple:
        """Per pair its w when certified antipodal, else -1; and the key rows of the other pairs.

        A key row holds the pair's denominator pair, then e_1(M) .. e_m(M)
        modulo each prime.
        """
        q, primes = self.q, self.q[:, :, 0, 0]
        # C = A_a A_b^H, with A_b^H = re_b^T - i im_b^T
        re_b, im_b = (np.take(x, second, axis=1).swapaxes(-1, -2) for x in self.rows)
        cross = gaussian_mul_mod([np.take(x, first, axis=1) for x in self.rows], (re_b, -im_b), q)
        adjoint = cross[0].swapaxes(-1, -2), -cross[1].swapaxes(-1, -2)
        left = gaussian_mul_mod([np.take(x, first, axis=1) for x in self.inv], cross, q)
        right = gaussian_mul_mod([np.take(x, second, axis=1) for x in self.inv], adjoint, q)
        mats = gaussian_mul_mod(left, right, q)
        (p1, im1), (p2, im2) = trace_mod(mats, None, q), trace_mod(mats, mats, q)
        if np.count_nonzero(im1) or np.count_nonzero(im2):
            raise ArithmeticError("spectrum not real: nonzero imaginary residue")
        d = np.take(self.den_res, first, axis=1) * np.take(self.den_res, second, axis=1) % primes
        antipodal = (d * p1 % primes == p2).all(axis=0)
        labels = np.full(len(first), -1, dtype=np.int64)
        if antipodal.any():
            # tr M = w D with w in 0..m, and |tr M - w D| <= m D is below the primes' product
            d, p1 = d[:, antipodal], p1[:, antipodal]
            hits = np.array([(w * d % primes == p1).all(axis=0) for w in range(self.m + 1)])
            if not hits.any(axis=0).all():
                raise ArithmeticError("antipodal pair invariant outside its range")
            labels[antipodal] = hits.argmax(axis=0)
        rest = np.flatnonzero(~antipodal)
        keys = np.empty((len(rest), 1 + len(self.primes) * self.m), dtype=np.int64)
        if len(rest):
            e = elementary_mod(tuple(np.take(x, rest, axis=1) for x in mats), q)
            keys[:, 0] = np.take(self.den_index, first[rest]) * len(self.dens) + np.take(self.den_index, second[rest])
            keys[:, 1:] = e.transpose(1, 0, 2).reshape(len(rest), -1)
        return labels, keys

    def invariants(self, keys: np.ndarray) -> list:
        """The invariant of each key, lifted by Chinese remaindering and range-checked."""
        m, size = self.m, len(self.dens)
        res = keys[:, 1:].reshape(len(keys), len(self.primes), m).transpose(0, 2, 1)
        lifted = crt_lift(res.reshape(-1, len(self.primes)), self.primes)
        out = []
        for t, key in enumerate(keys[:, 0].tolist()):
            d = self.dens[key // size] * self.dens[key % size]
            values = lifted[t * m : (t + 1) * m]
            if not all(0 <= x <= math.comb(m, k) * d**k for k, x in enumerate(values, 1)):
                raise ArithmeticError("lifted pair invariant outside its range")
            out.append(tuple(rational(x, d**k) for k, x in enumerate(values, 1)))
        return out


def invariant_batch(points: Sequence, first, second) -> tuple:
    """Pair invariants of the exact pairs (points[first[t]], points[second[t]]).

    Multi-modular: the matrix M = N_a C N_b C^H of a pair, C the
    cross-Gram of the integer rows and G^-1 = N / D the reduced Gram
    inverses, has the angles times D = D_a D_b as eigenvalues.  It is
    formed modulo word-size primes in int64, all primes and a chunk of
    pairs at once.  A pair with D tr M = tr M^2 is antipodal, and its
    invariant is read off w = tr M / D.  For the other pairs,
    e_k(M) = D^k e_k come from the power sums by Newton's identities;
    they are grouped by (D, residues) and each group is lifted once by
    Chinese remaindering, exact because the primes exceed twice the
    range of every e_k(M).  Returns ``(invariants, classes)``: the
    distinct invariants in order of their first pair, and each pair's
    index into them as an int array.
    """
    first = np.asarray(first, dtype=np.int64)
    second = np.asarray(second, dtype=np.int64)
    if not len(first):
        return [], first
    batch = _PairBatch(points)
    m = batch.m
    step = max(1, PAIR_CHUNK_ELEMENTS // (4 * len(batch.primes) * m * points[0].n))
    groups: dict = {}  # key bytes -> group, in order of first pair
    labels = []
    for lo in range(0, len(first), step):
        # a certified pair is labelled w in 0..m, any other m + 1 + its group
        chunk_labels, chunk = batch.keys(first[lo : lo + step], second[lo : lo + step])
        if len(chunk):
            data, width = chunk.tobytes(), chunk.itemsize * chunk.shape[1]
            rows = (data[at : at + width] for at in range(0, len(data), width))
            found = np.fromiter((groups.setdefault(r, len(groups)) for r in rows), np.int64, len(chunk))
            chunk_labels[chunk_labels < 0] = m + 1 + found
        labels.append(chunk_labels)
    values = [tuple(rational(math.comb(w, k)) for k in range(1, m + 1)) for w in range(m + 1)]
    if groups:
        values += batch.invariants(np.frombuffer(b"".join(groups), dtype=np.int64).reshape(len(groups), -1))
    labels, first_at, inverse = np.unique(np.concatenate(labels), return_index=True, return_inverse=True)
    # in order of first pair; groups of different D may share an invariant
    classes: dict = {}
    merge = np.empty(len(labels), dtype=np.int64)
    for at in np.argsort(first_at).tolist():
        merge[at] = classes.setdefault(values[labels[at]], len(classes))
    return list(classes), np.take(merge, inverse)
