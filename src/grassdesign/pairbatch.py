"""Pair invariants of exact points of G(m, n), all pairs of a batch at once.

Each exact point holds Gaussian-integer rows A and its Gram inverse in
lowest terms, G^-1 = N / D.  For a pair (a, b) with cross-Gram
C = A_a A_b^H, the matrix M = N_a C N_b C^H has the principal angles
times D = D_a D_b as eigenvalues, so its elementary symmetric values
e_k(M) = D^k e_k are integers in [0, C(m, k) D^k].  They are found
modulo word-size primes p = 1 mod 4, whose product exceeds twice that
range for the largest D of the batch, in int64 arithmetic with the
primes as a batch axis; the prime width follows from n so that no sum
overflows.  As in the atoms below, a Gaussian integer is held as its
two images under Z[i] -> F_p, i -> s and i -> -s with s^2 = -1
(:func:`exactlinalg.gaussian_images`): a complex product is one int64
product of the image stacks, a conjugate is the stack reversed, and a
value is real mod p exactly when its two images agree.  Pairs are
processed in chunks of at most PAIR_CHUNK_ELEMENTS entries per array.

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
certified pair with no w, or a trace or power sum whose two images
differ (a nonzero imaginary residue) raises.

A whole configuration is first tried through its atoms (:func:`atoms`).
Its points are pairwise antipodal exactly when their projectors commute,
and then C^n splits into orthogonal atoms W_1 .. W_k of ranks r_j, each
point the sum V_a of the atoms in a set J_a; a pair's invariant is
(C(w, 1), .., C(w, m)) with w the total rank of J_a & J_b (Chen-Nagano,
Trans. AMS 308, 1988).  The N x k membership H of the points in the
atoms is read off the rows of a coordinate-aligned set, one nonzero
entry per row, whose atoms are the n coordinate lines and whose w are
the Johnson-scheme relations |I_a & I_b|.  Any other set has its pairs
(0, j) checked by the trace identity modulo one word prime, then its
atoms refined by the points in order on images modulo that prime, and
certified exactly.  Any failed check returns None, and the
configuration goes to :func:`invariant_batch` instead.  Otherwise both
the class counts (:func:`atom_counts`) and the per-pair table
(:func:`atom_table`) are read off w = H diag(r) H^T, in row blocks of
float64 products on BLAS, exact since every entry is 0 or an atom rank
and every w is at most n.  Classes of either source are ordered by
descending invariant.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain
from typing import Sequence

import numpy as np

from .exactlinalg import (
    crt_lift,
    elementary_mod,
    gaussian_images,
    modulus_bits,
    residues,
    split_moduli,
    trace_mod,
)
from .scalars import rational

# Most int64 entries one array of a pair chunk holds, over all primes:
# memory stays flat in the number of pairs.
PAIR_CHUNK_ELEMENTS = 1 << 15


def _parts(matrices) -> list:
    """The (re, im) parts of the entries of Gaussian-integer matrices, flat."""
    return [x for mat in matrices for row in mat for pair in row for x in pair]


class _PairBatch:
    """Images of the points of a batch, modulo split primes enough for every pair invariant."""

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
        pairs = split_moduli(modulus_bits(n), 2 * bound + 1)
        self.primes = [p for p, _ in pairs]
        self.q = np.array(self.primes, dtype=np.int64).reshape(-1, 1, 1, 1)
        self.den_res = residues([p.inv_den for p in points], self.primes)
        self.rows = gaussian_images(_parts(p.rows for p in points), pairs, (k, m, n))
        self.inv = gaussian_images(_parts(p.inv_num for p in points), pairs, (k, m, m))

    def keys(self, first: np.ndarray, second: np.ndarray) -> tuple:
        """Per pair its w when certified antipodal, else -1; and the key rows of the other pairs.

        A key row holds the pair's denominator pair, then e_1(M) .. e_m(M)
        modulo each prime.
        """
        q, primes = self.q, self.q[:, :, 0, 0]
        rows_a, rows_b = (np.take(self.rows, x, axis=2) for x in (first, second))
        # C = A_a A_b^H, the image of a conjugate being the stack reversed
        cross = rows_a @ rows_b[::-1].swapaxes(-1, -2) % q
        left = np.take(self.inv, first, axis=2) @ cross % q
        right = np.take(self.inv, second, axis=2) @ cross[::-1].swapaxes(-1, -2) % q
        mats = left @ right % q
        (p1, other1), (p2, other2) = trace_mod(mats, None, q), trace_mod(mats, mats, q)
        # the images of a trace differ by 2 s times its imaginary part
        if not (np.array_equal(p1, other1) and np.array_equal(p2, other2)):
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
            e = elementary_mod(np.take(mats, rest, axis=2), q)
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
    """Pair invariants of the exact pairs (points[first[t]], points[second[t]]), multi-modular as above.

    A pair with D tr M = tr M^2 is antipodal and read off w = tr M / D;
    the others are grouped by (D, residues of e_k(M)) and each group is
    lifted once.  Returns ``(invariants, classes)``: the distinct
    invariants by descending value, and each pair's index into them as
    an int array.
    """
    first = np.asarray(first, dtype=np.int64)
    second = np.asarray(second, dtype=np.int64)
    if not len(first):
        return [], first
    batch = _PairBatch(points)
    m = batch.m
    step = max(1, PAIR_CHUNK_ELEMENTS // (2 * len(batch.primes) * m * points[0].n))
    groups: dict = {}  # key bytes -> group
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
    values = [_binomial(w, m) for w in range(m + 1)]
    if groups:
        values += batch.invariants(np.frombuffer(b"".join(groups), dtype=np.int64).reshape(len(groups), -1))
    # groups of different D may share an invariant
    return _ranked(values, np.concatenate(labels))


def _binomial(w: int, m: int) -> tuple:
    """The invariant (C(w, 1), .., C(w, m)) of an antipodal pair sharing rank w."""
    return tuple(rational(math.comb(w, k)) for k in range(1, m + 1))


def _ranked(values: list, labels: np.ndarray) -> tuple:
    """The distinct values[labels] by descending value, and each label's index into them."""
    used = np.bincount(labels, minlength=len(values)).astype(bool)
    invariants = sorted({e for e, u in zip(values, used.tolist()) if u}, reverse=True)
    index = {e: c for c, e in enumerate(invariants)}
    return invariants, np.array([index.get(e, -1) for e in values])[labels]


def _inner(u, v) -> tuple:
    """sum_t u_t conj(v_t) of two Gaussian-integer vectors of (re, im) pairs."""
    re = im = 0
    for (ur, ui), (vr, vi) in zip(u, v):
        re += ur * vr + ui * vi
        im += ui * vr - ur * vi
    return re, im


def _combination(coeffs, vectors) -> list:
    """sum_i c_i v_i of Gaussian-integer vectors."""
    out = [(0, 0)] * len(vectors[0])
    for (cr, ci), v in zip(coeffs, vectors):
        out = [(sr + cr * xr - ci * xi, si + cr * xi + ci * xr) for (sr, si), (xr, xi) in zip(out, v)]
    return out


class _Independent:
    """Gaussian-integer vectors kept while their images under Z[i] -> F_p, i -> s, stay independent.

    A nonzero minor of the images is a nonzero minor of the vectors, so
    the kept vectors are independent over Q(i).
    """

    def __init__(self, p: int, s: int):
        self.p, self.s = p, s
        self.echelon: dict = {}  # pivot column -> a row that is 1 there and 0 at every earlier pivot
        self.kept: list = []

    def add(self, v):
        p = self.p
        x = [(re + self.s * im) % p for re, im in v]
        for col, row in self.echelon.items():
            if x[col]:
                f = x[col]
                x = [(a - f * b) % p for a, b in zip(x, row)]
        lead = next((col for col, a in enumerate(x) if a), None)
        if lead is not None:
            inv = pow(x[lead], -1, p)
            self.echelon[lead] = [a * inv % p for a in x]
            self.kept.append(v)


def _primitive(v) -> list:
    """A Gaussian-integer vector divided by the gcd of its parts."""
    g = math.gcd(*[x for pair in v for x in pair])
    return [(re // g, im // g) for re, im in v]


def _split(point, atom: list, images: list, p: int, s: int):
    """The atom's parts in V_a and in its complement, or None when their ranks do not add up to its rank r.

    ``images`` tells for each basis vector b whether the image of
    u = D b P_a is 0 (b is taken to lie in the complement), that of D b
    (b is taken to lie in V_a), or neither; only then are u = ((b A^H) N) A
    and v = D b - u formed, in Python integers.  Vectors are taken in
    order until the parts have rank r: when V_a reduces the atom they
    then span its two pieces.  A rank above r means it does not; ranks
    are taken in F_p, and a shortfall there is refused too.  A wrong
    guess only makes atoms that fail certification.
    """
    d, rows, r = point.inv_den, point.rows, len(atom)
    inside, outside = _Independent(p, s), _Independent(p, s)
    rank = 0
    for b, image in zip(atom, images):
        if image == 0:
            outside.add(b)
        elif image == 1:
            inside.add(b)
        else:
            x = [_inner(b, row) for row in rows]
            # (x N)_j = sum_i x_i conj(N_ji), N being Hermitian
            u = _combination([_inner(x, row) for row in point.inv_num], rows)
            inside.add(u)
            outside.add([(d * br - ur, d * bi - ui) for (br, bi), (ur, ui) in zip(b, u)])
        rank = len(inside.kept) + len(outside.kept)
        if rank >= r:
            break
    if rank != r:
        return None
    return [[_primitive(v) for v in part.kept] for part in (inside, outside) if part.kept]


def _refine(points, p: int, s: int, projectors, dens: np.ndarray):
    """Atoms of C^n refined by the points in order, or None at a split that is not invariant.

    Starts from C^n and stops once the points run out, or once the
    atoms are n lines and the chunk in hand is scanned.  Over F_p,
    through Z[i] -> F_p, i -> s, the images of u = D b P_a give for a
    chunk of points and every atom vector b a code: 0 when b is taken
    to be orthogonal to V_a (u = 0), 1 when it is taken to lie in V_a
    (u = D b), 2 when it splits; an image that differs is an exact
    difference, so a line coded 2 is not invariant.  An atom none of
    whose vectors is coded 2 at a scanned point is regrouped by its
    vectors' codes at all of them, since its vectors are then taken to
    be common eigenvectors of those projectors; it stays whole when
    they share one signature, and needs no split.  An atom with a
    code-2 vector is split exactly (:func:`_split`) at the first point
    where it is not whole, and the scan of all atoms resumes after that
    point.  Coordinate points, coded 0 or 1 at every standard basis
    vector, only regroup atoms; a set of nothing else never gets here,
    its atoms being read off its rows (:func:`_row_supports`).
    ``projectors(lo, hi)`` gives the images of D P_a for the points
    lo .. hi - 1, and ``dens`` the images of D.
    """
    n, total = points[0].n, len(points)
    atoms = [[[(int(i == j), 0) for j in range(n)] for i in range(n)]]
    step = max(1, PAIR_CHUNK_ELEMENTS // (n * n))
    at = lo = hi = 0
    # once the atoms are lines, only the rest of the chunk in hand is scanned
    while at < total and (len(atoms) < n or at < hi):
        if at >= hi:
            lo, hi = at, min(total, at + step)
            chunk = projectors(lo, hi)
        starts = [0, *accumulate(len(atom) for atom in atoms[:-1])]
        b = np.array([[(re + s * im) % p for re, im in v] for atom in atoms for v in atom], dtype=np.int64)
        u = b @ chunk[at - lo :] % p
        # per point and vector: 0 when u = 0, 1 when u = D b, 2 otherwise
        images = np.where(u.any(axis=-1), 2, 0)
        images[(u == dens[at:hi, None, None] * b % p).all(axis=-1)] = 1
        # an atom is whole at a point when all its vectors lie in V_a, or all are orthogonal to it
        highest = np.maximum.reduceat(images, starts, axis=1)
        whole = (np.minimum.reduceat(images, starts, axis=1) == highest) & (highest < 2)
        # an atom with no vector coded 2 is clean; the first point where a
        # dirty atom is not whole splits it
        clean = (highest < 2).all(axis=0)
        hits = np.flatnonzero(~whole[:, ~clean].all(axis=1))
        a = int(hits[0]) if len(hits) else None
        signatures = images.T
        refined = []
        for j, (atom, start) in enumerate(zip(atoms, starts)):
            if clean[j]:
                groups: dict = {}
                for v, signature in zip(atom, signatures[start : start + len(atom)]):
                    groups.setdefault(signature.tobytes(), []).append(v)
                refined += groups.values()
            elif whole[a, j]:
                refined.append(atom)
            else:
                parts = _split(points[at + a], atom, images[a, start : start + len(atom)].tolist(), p, s)
                if parts is None:
                    return None
                refined += parts
        atoms, at = refined, hi if a is None else at + a + 1
    return atoms


def _membership(atoms: list, rows: np.ndarray, pairs: list) -> np.ndarray:
    """J_a for every point: the atoms that some row meets with an inner product whose image is nonzero, (N, k) bool.

    ``rows`` holds the images of the points' rows, shape (P, N, m, n),
    one per (p, s) of ``pairs``; the points are taken in chunks.
    """
    n, m = rows.shape[-1], rows.shape[-2]
    adjoint = gaussian_images(_parts(atoms), pairs, (n, n))[1].swapaxes(-1, -2)[:, None]
    q = np.array([p for p, _ in pairs], dtype=np.int64).reshape(-1, 1, 1, 1)
    starts = [0, *accumulate(len(atom) for atom in atoms[:-1])]
    step = max(1, PAIR_CHUNK_ELEMENTS // (len(pairs) * m * n))
    out = []
    for lo in range(0, rows.shape[1], step):
        touched = (rows[:, lo : lo + step] @ adjoint % q).any(axis=(0, 2))
        out.append(np.logical_or.reduceat(touched, starts, axis=1))
    return np.concatenate(out)


def _weights(member: np.ndarray, ranks: np.ndarray):
    """Row blocks of w = H diag(r) H^T as int64, each a chunk of rows lo .. hi - 1 against the columns j >= lo.

    The float64 products run on BLAS and are exact: every entry of H and
    of diag(r) H^T is 0 or an atom rank, and every w is at most
    n < 2^53.  Chunks have a fixed entry budget, so no N x N array is
    formed.
    """
    size = len(member)
    member = member.astype(np.float64)
    weighted = (member * ranks).T
    # float64 rows of one chunk: BLAS wants a wider budget than int64 pair arrays
    step = max(1, 8 * PAIR_CHUNK_ELEMENTS // size)
    for lo in range(0, size, step):
        # bound to a name before it is converted and counted: with the
        # product written inside np.bincount(...), the counting loop once
        # took 1.45-9.5 s at (8, 16) against 0.4 s (numpy 2.4.6, fresh
        # processes), for a cause not pinned down
        w = member[lo : lo + step] @ weighted[:, lo:]
        yield w.astype(np.int64)


def atom_counts(member: np.ndarray, ranks: np.ndarray, m: int) -> dict:
    """Invariant counts over ordered pairs from the atoms' membership H and ranks r, by descending invariant."""
    counts = np.zeros(m + 1, dtype=np.int64)
    for w in _weights(member, ranks):
        # a block's own square holds its ordered pairs once, a later column both (i, j) and (j, i)
        counts += 2 * np.bincount(w.ravel(), minlength=m + 1) - np.bincount(w[:, : len(w)].ravel(), minlength=m + 1)
    return {_binomial(w, m): int(counts[w]) for w in range(m, -1, -1) if counts[w]}


def atom_table(member: np.ndarray, ranks: np.ndarray, m: int) -> tuple:
    """The ``(invariants, classes)`` of :func:`invariant_batch` over all pairs i <= j, read off the atoms' w blocks."""
    w = np.concatenate([w[np.triu(np.ones(w.shape, dtype=bool))] for w in _weights(member, ranks)])
    return _ranked([_binomial(v, m) for v in range(m + 1)], w)


def _row_supports(points: Sequence):
    """The (N, n) membership of coordinate-aligned points, each the span of e_c over its rows' supports; None for any other set.

    A set is coordinate-aligned when every row of every point has
    exactly one nonzero entry.  Its rows being independent, the supports
    of a point's rows are m distinct coordinates I_a.
    """
    size, m, n = len(points), points[0].m, points[0].n
    entries = chain.from_iterable(chain.from_iterable(pt.rows for pt in points))
    nonzero = np.fromiter(map((0, 0).__ne__, entries), bool, size * m * n).reshape(size, m, n)
    if not (nonzero.sum(axis=-1) == 1).all():
        return None
    return nonzero.any(axis=1)


def atoms(points: Sequence):
    """The (N, k) membership H of exact points in their atoms and the k atom ranks r; None when a check fails.

    Every pair is then antipodal with w = sum of r_j over J_a & J_b.  A
    coordinate-aligned set (:func:`_row_supports`) reads H off its rows:
    each point is span{e_c : c in I_a} with diagonal projectors, so the
    atoms are the n coordinate lines, with no prime, image or
    certification.  Any other set is checked on the pairs (0, j) first,
    modulo the first of the primes of :func:`exactlinalg.split_moduli`:
    a pair whose images break the trace identity D tr M = tr M^2 of
    :func:`invariant_batch` is not antipodal.  Then its atoms come from
    :func:`_refine`, modulo the same prime, and are certified when
    vectors of different atoms are orthogonal (Python integers) and
    every point meets atoms of total rank m.  A row a and an atom vector b have an
    inner product with parts of size at most L = 2 n max|a| max|b|, so
    one whose image vanishes modulo primes of product above 2 L^2 is 0.
    With the ranks summing to n, the atoms span C^n; so V_a, orthogonal
    to every atom outside J_a, is the sum of the atoms in J_a.
    """
    size, m, n = len(points), points[0].m, points[0].n
    member = _row_supports(points)
    if member is not None:
        return member, np.ones(n, dtype=np.int64)
    bits = modulus_bits(n)
    values = _parts(pt.rows for pt in points)
    shape, first = (size, m, n), split_moduli(bits, 1)
    p, s = first[0]
    image, conj = gaussian_images(values, first, shape)
    inv = gaussian_images(_parts(pt.inv_num for pt in points), first, (size, m, m))[0, 0]
    dens = residues([pt.inv_den for pt in points], [p])[0]
    # M = N_0 C N_j C^H with C = A_0 A_j^H, the image of A^H being the
    # transposed image of conj(A)
    left = inv[0] @ (image[0, 0] @ conj[0].swapaxes(-1, -2) % p) % p
    mats = (left @ (inv @ (image[0] @ conj[0, 0].T % p) % p) % p)[None]
    q = np.full((1, 1, 1, 1), p)
    if (dens[0] * dens % p * trace_mod(mats, None, q) % p != trace_mod(mats, mats, q)).any():
        return None

    def projectors(lo, hi):
        # D P_a = A^H N A, with A^H the transposed image of conj(A)
        return conj[0, lo:hi].swapaxes(-1, -2) @ inv[lo:hi] % p @ image[0, lo:hi] % p

    found = _refine(points, p, s, projectors, dens)
    if found is None:
        return None
    labelled = [(j, v) for j, atom in enumerate(found) for v in atom]
    for at, (j, u) in enumerate(labelled):
        if any(k != j and _inner(u, v) != (0, 0) for k, v in labelled[at + 1 :]):
            return None
    top_b = max(abs(x) for _, v in labelled for pair in v for x in pair)
    pairs = split_moduli(bits, 2 * (2 * n * max(max(values), -min(values)) * top_b) ** 2)
    member = _membership(found, image if pairs == first else gaussian_images(values, pairs, shape)[0], pairs)
    ranks = np.array([len(atom) for atom in found], dtype=np.int64)
    if not (member @ ranks == m).all():
        return None
    return member, ranks
