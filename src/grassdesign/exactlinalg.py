"""Small exact linear-algebra kernels.

Three kinds of scalar are served:

* Python integers: the l(mu) x l(mu) minor of each term of
  :func:`zonal.zonal_kernel`, by closed forms up to 3 x 3 and
  fraction-free elimination beyond, with no scan of the entries' types
  and no copy past the selected columns (:func:`minor`).  Exact Schur
  values take no determinant (see :func:`symfunc.schur_e_polynomial`);
  the generic determinant over any exact ring is a test oracle in
  ``tests/exact_oracles.py``, and so is the matrix product over any
  scalars;
* Gaussian integers stored as ``(re, im)`` pairs of Python ints, the
  scalars of the exact pair geometry: the determinant and adjugate of a
  point's Gram matrix (its Gram inverse), by the same fraction-free
  elimination run as Gauss-Jordan.  Every division is exact, so every
  intermediate is an integer and no fraction is ever formed or reduced;
* int64 residues modulo word-size primes p = 1 mod 4
  (:func:`split_moduli`), numpy arrays with the primes as a leading
  batch axis.  With s^2 = -1 mod p, a Gaussian integer is held as its
  two images under i -> s and i -> -s (:func:`gaussian_images`), which
  together are Z[i]/p = F_p x F_p: a product of Gaussian-integer
  matrices is one int64 product of the image stacks, a conjugate is the
  stack reversed, and a value is real mod p exactly when its two images
  agree.  Traces and the elementary symmetric values of spectra, by
  Newton's identities, are taken on the stacks.  Every sum stays below
  2^63 by the choice of the prime width, so the arithmetic is exact.
  Integers enter by ``%``, in one int64 array when they fit in a word,
  and leave by the textbook Chinese remainder sum, in Python integers.

Matrices are lists of lists outside the modular kernels; their sizes in
this package stay in the single digits, so clarity wins over asymptotics.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import itemgetter

import numpy as np


def minor(rows, cols):
    """Determinant of the square integer matrix of ``rows`` read at the columns ``cols``.

    One row per column.  Sizes up to 3 are closed forms, which divide
    nothing, so they also take float columns read at index arrays.  Larger
    ones take Bareiss's fraction-free elimination (Math. Comp. 22, 1968)
    down to a 3 x 3 trailing block: each step replaces the block's a_ij by
    (p a_ij - a_i0 a_0j) / q, p the pivot and q the one before, an exact
    integer division, and a zero pivot is swapped for a lower row with a
    nonzero entry in its column.  By Sylvester's identity that block's
    determinant is the whole one times q^2.  O(n^3) integer operations:
    the l(mu) x l(mu) minor of each term of a zonal kernel.
    """
    if len(cols) < 3:
        if len(cols) == 2:
            (r, s), (x, y) = rows, cols
            return r[x] * s[y] - r[y] * s[x]
        return rows[0][cols[0]] if cols else 1
    sign = prev = 1
    if len(cols) > 3:
        a = list(map(itemgetter(*cols), rows))
        while len(a) > 3:
            if not a[0][0]:
                swap = next((i for i, row in enumerate(a) if row[0]), None)
                if swap is None:
                    return 0
                a[0], a[swap] = a[swap], a[0]
                sign = -sign
            (pivot, *top), rest = a[0], a[1:]
            a = [[(pivot * x - row[0] * t) // prev for x, t in zip(row[1:], top)] for row in rest]
            prev = pivot
        rows, cols = a, (0, 1, 2)
    (r, s, t), (x, y, z) = rows, cols
    value = r[x] * (s[y] * t[z] - s[z] * t[y]) - r[y] * (s[x] * t[z] - s[z] * t[x]) + r[z] * (s[x] * t[y] - s[y] * t[x])
    return sign * value if prev == 1 else sign * value // prev**2


def gram_adjugate(rows):
    """Determinant and adjugate of the Gram matrix G = A A^H of Gaussian-integer rows.

    ``rows`` are the rows of A as lists of ``(re, im)`` int pairs.  G's
    Hermitian inner products are formed, then fraction-free Gauss-Jordan
    elimination (Bareiss, Math. Comp. 22, 1968) runs on [G | I]: step k
    sets each row i != k to (p_k row_i - a_ik row_k) / p_(k-1), which
    leaves det(G) I | adj(G).  G is Hermitian positive semidefinite, so
    each pivot p_k is a leading principal minor, a nonnegative integer:
    no pivoting is needed and every division is exact in both parts.  A
    zero pivot means the rows are dependent.  Returns ``(det, adj)``, an
    int and a matrix of ``(re, im)`` pairs, or ``(0, None)`` for
    dependent rows.
    """
    m = len(rows)
    aug = [[(0, 0)] * m + [(int(i == j), 0) for j in range(m)] for i in range(m)]
    for i, u in enumerate(rows):
        for j in range(i, m):
            re = im = 0
            for (xr, xi), (yr, yi) in zip(u, rows[j]):
                re += xr * yr + xi * yi
                im += xi * yr - xr * yi
            aug[i][j], aug[j][i] = (re, im), (re, -im)
    prev = 1
    for k, top in enumerate(aug):
        pivot = top[k][0]
        if not pivot:
            return 0, None
        for i, row in enumerate(aug):
            if i != k:
                lr, li = row[k]
                aug[i] = [
                    ((pivot * xr - lr * tr + li * ti) // prev, (pivot * xi - lr * ti - li * tr) // prev)
                    for (xr, xi), (tr, ti) in zip(row, top)
                ]
        prev = pivot
    return prev, [row[m:] for row in aug]


# Deterministic Miller-Rabin witnesses for every integer below 2^64.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Pairs (p, s) of the primes p = 1 mod 4 below 2^bits, largest first, and
# a square root s of -1 mod p, keyed by bits; a list grows on demand.
_SPLIT: dict = {}


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    for w in _WITNESSES:
        if q % w == 0:
            return q == w
    d, s = q - 1, 0
    while not d % 2:
        d, s = d // 2, s + 1
    for w in _WITNESSES:
        x = pow(w, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def modulus_bits(terms: int) -> int:
    """Widest prime moduli for which a sum of ``terms`` products of residues fits in int64."""
    bits = (63 - (terms - 1).bit_length()) // 2
    if 1 << bits <= terms:
        raise ValueError(f"sums of {terms} products are too long for word-size moduli")
    return bits


def _root_of_minus_one(p: int) -> int:
    """s with s^2 = -1 mod a prime p that is 1 mod 4."""
    g = 2
    while pow(g, (p - 1) // 2, p) != p - 1:
        g += 1
    # g is a non-residue, so g^((p - 1) / 4) squares to g^((p - 1) / 2) = -1
    return pow(g, (p - 1) // 4, p)


def split_moduli(bits: int, bound: int) -> list:
    """Pairs (p, s): the largest primes p = 1 mod 4 below 2^bits, as few as make their product exceed ``bound``.

    Such a prime splits in Z[i]: with s^2 = -1 mod p, i -> s is a ring
    map Z[i] -> F_p, which takes a Gaussian-integer matrix to one residue
    matrix.  Its kernel is an ideal of norm p, so a Gaussian integer x
    that maps to 0 for every p has a norm |x|^2 divisible by their
    product: when that product exceeds |x|^2, x = 0.
    """
    found = _SPLIT.setdefault(bits, [])
    product, count = 1, 0
    while product <= bound:
        if count == len(found):
            p = found[-1][0] - 4 if found else (1 << bits) - 3
            while not _is_prime(p):
                p -= 4
            found.append((p, _root_of_minus_one(p)))
        product *= found[count][0]
        count += 1
    return found[:count]


def residues(values: list, primes: list) -> np.ndarray:
    """Python ints modulo each prime, an int64 array of shape (len(primes), len(values))."""
    try:
        # word-size values, the usual case, in one vectorized %
        return np.array(values, dtype=np.int64) % np.array(primes, dtype=np.int64)[:, None]
    except OverflowError:
        # streamed row by row, so no P x V list of Python ints is ever held
        return np.stack([np.fromiter((v % p for v in values), np.int64, len(values)) for p in primes])


def gaussian_images(values: list, pairs: list, shape: tuple) -> np.ndarray:
    """Images of Gaussian integers under Z[i] -> F_p, i -> s and i -> -s, for each (p, s) of ``pairs``.

    ``values`` are the flat (re, im) parts, read as an array of the given
    shape.  Returns an int64 stack of shape (2, P) + shape: index 0 holds
    the images under i -> s, index 1 those under i -> -s.  Together they
    are the isomorphism Z[i]/p = F_p x F_p, so x = 0 mod p exactly when
    both vanish, and they agree exactly when im(x) = 0 mod p, since they
    differ by 2 s im(x).  conj(x) maps to the stack reversed on its first
    axis.
    """
    primes, roots = (np.array(v, dtype=np.int64).reshape(-1, *[1] * len(shape)) for v in zip(*pairs))
    res = residues(values, [p for p, _ in pairs]).reshape(len(pairs), *shape, 2)
    re, im = res[..., 0], res[..., 1] * roots % primes
    return np.stack(((re + im) % primes, (re - im) % primes))


def trace_mod(x, y, q):
    """tr(x y), or tr(x) when y is None, of stacked residue matrices, modulo ``q`` shaped (P, 1, 1, 1)."""
    if y is None:
        t = x.diagonal(axis1=-2, axis2=-1).sum(axis=-1)
    else:
        # reduced before the m^2 entries are summed
        t = (x * y.swapaxes(-1, -2) % q).sum(axis=(-2, -1))
    return t % q[..., 0, 0]


@lru_cache(maxsize=None)
def _inverses(primes: tuple, m: int) -> np.ndarray:
    """k^-1 mod p for k = 1 .. m, shape (m, P, 1)."""
    return np.array([[pow(k, -1, p) for p in primes] for k in range(1, m + 1)])[..., None]


def elementary_mod(mats: np.ndarray, q) -> np.ndarray:
    """e_1 .. e_m of the spectrum of each Gaussian-integer matrix, which must be real, from its images.

    ``mats`` is a stack of :func:`gaussian_images`, shape (2, P, N, m, m),
    and ``q`` the P primes, shaped (P, 1, 1, 1), each above m.  The power
    sums tr(M^k), k <= m, come from the powers up to ceil(m / 2); two
    images of a power sum that differ mean a nonzero imaginary residue,
    which raises.  Newton's identities
    k e_k = sum_i (-1)^(i-1) e_(k-i) tr(M^i) then give e_k with k^-1 mod p;
    each sum has at most m products of residues, so it fits in int64
    whenever the products of the matrices do.  Returns shape (P, N, m).
    """
    m = mats.shape[-1]
    half = (m + 1) // 2
    powers = [mats]
    while len(powers) < half:
        powers.append(powers[-1] @ mats % q)
    primes = q[..., 0, 0]
    inverses = _inverses(tuple(primes.ravel().tolist()), m)
    # row k - 1 holds (-1)^(k-1) tr(M^k)
    sums = np.empty((m,) + mats.shape[1:-2], dtype=np.int64)
    for k in range(1, m + 1):
        i = min(k, half)
        image, other = trace_mod(powers[i - 1], powers[k - i - 1] if k > i else None, q)
        if not np.array_equal(image, other):
            raise ArithmeticError("spectrum not real: nonzero imaginary residue")
        sums[k - 1] = image if k % 2 else -image % primes
    e = np.empty((m + 1,) + sums.shape[1:], dtype=np.int64)
    e[0] = 1
    for k in range(1, m + 1):
        e[k] = (e[k - 1 :: -1] * sums[:k]).sum(axis=0) % primes * inverses[k - 1] % primes
    return np.moveaxis(e[1:], 0, -1)


@lru_cache(maxsize=None)
def _crt_weights(primes: tuple) -> tuple:
    """The product Q of the primes and w_i = (Q / p_i) ((Q / p_i)^-1 mod p_i), 1 mod p_i and 0 mod the rest."""
    total = math.prod(primes)
    return total, [total // p * pow(total // p, -1, p) for p in primes]


def crt_lift(res: np.ndarray, primes: list) -> list:
    """Integers of the symmetric range |x| < Q / 2, Q the product of the primes, with these residues.

    ``res`` has shape (N, P); each row is lifted by x = sum_i r_i w_i mod Q.
    """
    total, weights = _crt_weights(tuple(primes))
    out = []
    for row in res:
        x = sum(r * w for r, w in zip(row.tolist(), weights)) % total
        out.append(x - total if 2 * x > total else x)
    return out
