"""Points of G(m, n), principal angles, antipodality.

A point is an m-dimensional subspace of C^n given by a full-rank m x n
basis matrix whose rows span it.  Two modes coexist:

* exact mode stores Gaussian-rational entries and never orthonormalizes
  (that would need square roots).  Each point also keeps its rows scaled
  by the lcm of their denominators, as Gaussian integers in ``(re, im)``
  int pairs, and the inverse of their integer Gram matrix in lowest
  terms, G^-1 = N / D.  A pair's angles times D_a D_b are the
  eigenvalues of the integer matrix N_a C N_b C^H, C the cross-Gram,
  whose elementary symmetric values give the pair invariant
  (e_1, .., e_m) of the angles with no root found.  A configuration
  decides once where its pair classes come from
  (:meth:`SubspaceConfiguration._pair_source`).  Pairwise antipodal
  points are sums of orthogonal atoms of C^n, read off the rows of a
  coordinate-aligned set and certified exactly for any other
  (:func:`pairbatch.atoms`); a pair's invariant follows from the total
  rank of the atoms it shares, so the counts and the per-pair table are
  both read off the atoms, with no pair product.  Any failed check
  evaluates every pair in one multi-modular batch
  (:func:`pairbatch.invariant_batch`: int64 images of the points modulo
  word-size primes p = 1 mod 4, antipodal pairs certified by the trace
  identity D tr M = tr M^2, the others lifted by Chinese remaindering
  once per distinct class).  Classes are ordered by descending
  invariant.  Defects, antipodality and the tightness tests read only
  invariants, so they hold for any exact configuration.  Angles
  themselves, for display, are read off each distinct invariant once
  (:func:`invariant_angles`: the angles times the lcm d of its
  denominators are the integer roots of an integer polynomial, found by
  bisection and divided out exactly), which succeeds only on rational
  spectra; every bundled configuration has one;
* float mode stores complex entries and orthonormalizes each point
  through a thin SVD (which also reveals the rank).  A configuration
  forms the cross-Grams G = F_a^H F_b of the orthonormal frames of all
  unordered pairs in chunks of stacked products.  The angles are the
  eigenvalues of W = G^H G; the design path reads their e_1 .. e_m off
  the power sums tr(W^k) by Newton's identities, with no per-pair table
  and no SVD, and the display path reads the angles themselves off the
  singular values of the same stacks.

A configuration file is read in one load pass (:func:`_load_points`),
after its header (m, n, mode, label) is checked and with each point's
shape checked against the declared (m, n) as it is decoded.  Exact
entry strings are parsed straight into lowest-terms int pairs and
scaled into the Gaussian-integer rows, with no ``Fraction`` made, and
the rows are all an exact point keeps: its JSON text is written back
from them by :func:`scalars.gaussian_text`, and its float copy divides
their integers.  Float bases are decoded into one (N, m, n) stack, by a single
``np.array`` call when every entry is an [re, im] pair of JSON numbers,
and orthonormalized by one stacked SVD; each point keeps read-only
views into the stacks.  A single :class:`SubspacePoint` runs the same
decoders with N = 1, and :meth:`SubspaceConfiguration.to_float` stacks
the float copies of all its exact points for one SVD.

Principal angles are returned as descending tuples y with entries in
[0, 1]; the pair (a, b) is antipodal exactly when every entry is 0 or 1,
that is, when e_1 is an integer r and e_k = C(r, k) for every k.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import pairbatch
from .exactlinalg import gram_adjugate
from .pairbatch import atom_counts, atom_table, atoms, invariant_batch
from .scalars import EXACT_REAL_TYPES, gaussian_parts, gaussian_text, rational, rational_to_str

EXACT = "exact"
FLOAT = "float"

RANK_TOL = 1e-10
DEFAULT_TOL = 1e-8  # float tolerance of antipodality tests and design defects

# Most points great_antipodal builds: C(16, 8), the set G(8, 16).  Its
# C(n, m) points are counted before any is built.
ANTIPODAL_POINT_BUDGET = 12_870


class PointLimitError(ArithmeticError):
    """A coordinate configuration would exceed ANTIPODAL_POINT_BUDGET points."""


class IrrationalAnglesError(ArithmeticError):
    """Exact spectrum does not split over the rationals; use float mode."""


def _as_complex_entry(v) -> complex:
    """Float-mode matrix entry: number, [re, im] pair, or exact string."""
    parts = v if isinstance(v, (list, tuple)) else (v,)
    if any(isinstance(p, bool) for p in parts) or isinstance(v, (list, tuple)) and len(v) != 2:
        raise ValueError(f"not a float matrix entry: {v!r}")
    try:
        if isinstance(v, (list, tuple)):
            re, im = v
            z = complex(float(re), float(im))
        elif isinstance(v, str):
            (p, q), (r, t) = gaussian_parts(v)
            z = complex(p / q, r / t)
        else:
            z = complex(v)
    except TypeError:
        raise ValueError(f"not a float matrix entry: {v!r}") from None
    except OverflowError:
        raise ValueError(f"float matrix entry too large for a float: {v!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"float matrix entry is not finite: {v!r}")
    return z


class RankDeficiencyError(ValueError):
    """Basis rows do not span an m-dimensional subspace."""


def _check_shape(m: int, n: int):
    if m < 1 or n < m:
        raise ValueError(f"bad shape ({m}, {n}): need 1 <= m <= n")


def _check_point_shape(m: int, n: int, declared):
    """A point's (m, n) is a valid shape and, when one is declared, equals it."""
    _check_shape(m, n)
    if declared is not None and (m, n) != declared:
        raise ValueError("declared (m, n) disagree with the point shapes")


class SubspacePoint:
    """An m-dimensional subspace of C^n spanned by the rows of a basis matrix.

    Float points keep ``basis``, that matrix as a read-only complex
    array, and ``frame``, orthonormal columns spanning the subspace.
    Exact points have ``basis = frame = None`` and keep instead ``rows``,
    the Gaussian-integer rows as ``(re, im)`` int pairs, with ``scales``,
    so that basis row i is rows[i] / scales[i] and scales[i] is the lcm
    of its denominators, and the inverse of the Gram matrix G
    of those rows in lowest terms, G^-1 = ``inv_num`` / ``inv_den``: the
    adjugate and the determinant of G, both from one fraction-free
    Gauss-Jordan elimination (:func:`exactlinalg.gram_adjugate`), divided
    by the gcd of all their parts.  A zero pivot of that elimination
    means the rows are dependent and raises :class:`RankDeficiencyError`.
    Coordinate points (:func:`coordinate_subspace`) run no elimination:
    their rows are distinct unit vectors, so G = I and they carry
    ``inv_den = 1`` and ``inv_num = I``, one identity list shared by
    every coordinate point of the same m and never modified.

    The constructor runs the decoders of :meth:`SubspaceConfiguration.from_json`
    on a single basis.
    """

    __slots__ = ("mode", "m", "n", "basis", "frame", "rows", "scales", "inv_num", "inv_den")

    def __init__(self, basis, mode: str = EXACT):
        if mode == EXACT:
            self._set_exact(*_exact_rows(basis))
        elif mode == FLOAT:
            stack = _float_stack([basis])
            self._set_float(stack[0], _orthonormal_frames(stack)[0])
        else:
            raise ValueError(f"unknown mode {mode!r}")

    @classmethod
    def _exact(cls, rows: list, scales: list, inverse: tuple | None = None) -> "SubspacePoint":
        """Exact point from decoded Gaussian-integer rows and their scales.

        ``inverse``, when given, is the rows' Gram inverse in lowest terms
        as ``(inv_num, inv_den)``, trusted as is; otherwise it is computed.
        """
        point = cls.__new__(cls)
        point._set_exact(rows, scales, inverse)
        return point

    @classmethod
    def _float(cls, basis: np.ndarray, frame: np.ndarray) -> "SubspacePoint":
        """Float point from a decoded basis and its orthonormal frame."""
        point = cls.__new__(cls)
        point._set_float(basis, frame)
        return point

    def _set_exact(self, rows: list, scales: list, inverse: tuple | None = None):
        self.mode = EXACT
        self.m, self.n = len(rows), len(rows[0])
        self.rows, self.scales = rows, scales
        self.basis = self.frame = None
        if inverse is not None:
            self.inv_num, self.inv_den = inverse
            return
        det, adj = gram_adjugate(rows)
        if not det:
            raise RankDeficiencyError(f"basis rank below {self.m}")
        g = math.gcd(det, *(x for row in adj for v in row for x in v))
        self.inv_den = det // g
        self.inv_num = [[(re // g, im // g) for re, im in row] for row in adj]

    def _set_float(self, basis: np.ndarray, frame: np.ndarray):
        self.mode = FLOAT
        self.m, self.n = basis.shape
        self.basis, self.frame = basis, frame
        self.rows = self.scales = self.inv_num = self.inv_den = None

    def to_float(self) -> "SubspacePoint":
        if self.mode == FLOAT:
            return self
        return _float_points(_float_copies([self]))[0][0]

    def to_json(self) -> dict:
        if self.mode == EXACT:
            rows = zip(self.rows, self.scales)
            return {"rows": [[gaussian_text((re, s), (im, s)) for re, im in row] for row, s in rows]}
        return {"rows": [[[float(v.real), float(v.imag)] for v in row] for row in self.basis]}

    def __repr__(self):
        return f"SubspacePoint(m={self.m}, n={self.n}, mode={self.mode})"


def _exact_entry(v) -> tuple:
    """An exact entry as lowest-terms int pairs ((p, q), (r, t)), the value p/q + (r/t) i."""
    if isinstance(v, str):
        return gaussian_parts(v)
    if isinstance(v, EXACT_REAL_TYPES) and not isinstance(v, bool):
        return (v.numerator, v.denominator), (0, 1)
    raise ValueError(f"not a Gaussian rational: {v!r}")


def _exact_rows(basis, declared=None) -> tuple:
    """Gaussian-integer rows of an exact basis, each scaled by the lcm of its denominators, and the scales."""
    rows, scales = [], []
    for row in basis:
        parts = [_exact_entry(v) for v in row]
        scale = math.lcm(*(d for (_, q), (_, t) in parts for d in (q, t)))
        rows.append([(p * (scale // q), r * (scale // t)) for (p, q), (r, t) in parts])
        scales.append(scale)
    n = len(rows[0]) if rows else 0
    if any(len(r) != n for r in rows):
        raise ValueError("ragged basis matrix")
    _check_point_shape(len(rows), n, declared)
    return rows, scales


def _pair_stack(bases: list):
    """The (N, m, n) complex array of the bases, when every entry is an [re, im] pair of JSON numbers.

    One ``np.array`` call decodes them all.  Returns None for any other
    entry form (bools are neither int nor float by type), for ragged
    rows or points, and for an int beyond the float range.
    """
    if not all(type(b) is list for b in bases):
        return None
    rows = list(chain.from_iterable(bases))
    if set(map(type, rows)) != {list}:
        return None
    entries = list(chain.from_iterable(rows))
    m, n = len(bases[0]), len(rows[0])
    if set(map(len, bases)) != {m} or set(map(len, rows)) != {n}:
        return None
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
        return None
    flat = list(chain.from_iterable(entries))
    if not set(map(type, flat)) <= {int, float}:
        return None
    try:
        pairs = np.array(flat, dtype=float)
    except OverflowError:
        return None
    return pairs.view(complex).reshape(len(bases), m, n)


def _float_basis(basis, declared) -> np.ndarray:
    """One float basis as a complex matrix, checked entry by entry so that errors name the entry."""
    if isinstance(basis, np.ndarray):
        # the checks that _as_complex_entry makes per entry
        if basis.dtype.kind not in "iufc":
            raise ValueError(f"not a float basis dtype: {basis.dtype}")
        arr = basis.astype(complex)
        if not np.isfinite(arr).all():
            raise ValueError("float basis entries are not all finite")
    else:
        arr = np.array([[_as_complex_entry(v) for v in row] for row in basis], dtype=complex)
    if arr.ndim != 2:
        raise ValueError("basis must be a matrix")
    _check_point_shape(*arr.shape, declared)
    return arr


def _float_stack(bases: list, declared=None) -> np.ndarray:
    """The float bases as one read-only (N, m, n) complex array.

    [re, im] pairs of JSON numbers take one decode and one finiteness
    check for the whole stack; any other entry form, or a failed check,
    goes basis by basis through :func:`_float_basis`.
    """
    stack = _pair_stack(bases)
    if stack is not None and np.isfinite(stack).all():
        _check_point_shape(*stack.shape[1:], declared)
    else:
        stack = np.stack([_float_basis(b, declared) for b in bases])
    stack.setflags(write=False)
    return stack


def _orthonormal_frames(stack: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning each basis's row space, by one stacked thin SVD.

    Returns a read-only (N, n, m) array; raises when the singular values
    of a basis span a ratio beyond ``RANK_TOL``.
    """
    u, s, _ = np.linalg.svd(stack.transpose(0, 2, 1), full_matrices=False)
    if (s[:, -1] <= RANK_TOL * s[:, 0]).any():
        raise RankDeficiencyError("float basis is numerically rank deficient")
    u.setflags(write=False)
    return u


def _float_copies(points: list) -> np.ndarray:
    """The bases of exact points of one shape as one read-only (N, m, n) complex array.

    Each part is an int true division, correctly rounded as
    ``float(Fraction)`` is.  An entry beyond the float range raises the
    float load path's ValueError, naming the entry by its text.
    """
    try:
        parts = [x / s for p in points for row, s in zip(p.rows, p.scales) for v in row for x in v]
    except OverflowError:
        for p in points:
            for row, s in zip(p.rows, p.scales):
                for re, im in row:
                    try:
                        re / s, im / s
                    except OverflowError:
                        entry = gaussian_text((re, s), (im, s))
                        raise ValueError(f"float matrix entry too large for a float: {entry!r}") from None
        raise
    stack = np.array(parts, dtype=float).view(complex).reshape(len(points), points[0].m, points[0].n)
    stack.setflags(write=False)
    return stack


def _float_points(stack: np.ndarray) -> tuple:
    """Float points viewing a read-only stack of bases, orthonormalized by one SVD, and their (N, n, m) frames."""
    frames = _orthonormal_frames(stack)
    return [SubspacePoint._float(b, f) for b, f in zip(stack, frames)], frames


def _load_points(bases: list, mode: str, declared) -> tuple:
    """The load pass of a configuration of a checked mode: its points, and in float mode their (N, n, m) frames.

    Exact entries become Gaussian-integer rows with no ``Fraction`` made;
    float bases are decoded into one stack and orthonormalized by one
    SVD, each point keeping read-only views into both stacks.
    """
    if not bases:
        return [], None
    if mode == EXACT:
        return [SubspacePoint._exact(*_exact_rows(b, declared)) for b in bases], None
    return _float_points(_float_stack(bases, declared))


class SubspaceConfiguration:
    """Ordered list of points sharing one ambient G(m, n) and one mode."""

    __slots__ = ("points", "label", "m", "n", "mode", "_pairs", "_source", "_classes", "_frames")

    def __init__(self, points: Sequence[SubspacePoint], label: str = ""):
        points = list(points)
        if not points:
            raise ValueError("configuration needs at least one point")
        first = points[0]
        for p in points:
            if (p.m, p.n, p.mode) != (first.m, first.n, first.mode):
                raise ValueError("points disagree on (m, n, mode)")
        if first.n < 2 * first.m:
            raise ValueError(f"need n >= 2m, got ({first.m}, {first.n})")
        self.points = points
        self.label = label
        self.m, self.n, self.mode = first.m, first.n, first.mode
        self._pairs = self._source = self._classes = self._frames = None

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, k):
        return self.points[k]

    def to_float(self) -> "SubspaceConfiguration":
        """The float copy: exact points divided out into one stack and orthonormalized by one SVD."""
        if self.mode == FLOAT:
            return self
        points, frames = _float_points(_float_copies(self.points))
        config = SubspaceConfiguration(points, label=self.label)
        config._frames = frames
        return config

    def _pair_source(self) -> tuple:
        """Where the pair classes come from, decided once: ``(atoms, table)``, one of them None.

        ``atoms`` is the membership and ranks of :func:`pairbatch.atoms`;
        else ``table`` is the batch's ``(invariants, classes)`` over all
        pairs i <= j.
        """
        if self.mode != EXACT:
            raise ValueError("angle invariants are exact-mode only")
        if self._source is None:
            found = atoms(self.points)
            table = None if found else invariant_batch(self.points, *_pair_indices(len(self.points)))
            self._source = (found, table)
        return self._source

    def invariant_classes(self) -> dict:
        """Multiplicities of angle invariants over all ordered pairs (exact mode), by descending invariant.

        Counted once from the pair source (:meth:`_pair_source`): off the
        atoms by :func:`pairbatch.atom_counts`, with no per-pair table, or
        from the batch's classes.
        """
        if self._classes is None:
            found, table = self._pair_source()
            if found:
                self._classes = atom_counts(*found, self.m)
            else:
                invariants, classes = table
                first, second = _pair_indices(len(self.points))
                size = len(invariants)
                counts = 2 * np.bincount(classes, minlength=size) - np.bincount(classes[first == second], minlength=size)
                self._classes = dict(zip(invariants, counts.tolist()))
        return dict(self._classes)

    def _frame_stack(self) -> np.ndarray:
        """The (k, n, m) stack of the float points' frames: the load pass's, or stacked once."""
        if self._frames is None:
            self._frames = np.stack([p.frame for p in self.points])
        return self._frames

    def _float_grams(self, first: np.ndarray, second: np.ndarray) -> Iterator[np.ndarray]:
        """Cross-Grams of the float pairs (first[t], second[t]), every i <= j in pair order, in chunks.

        A chunk is a block of consecutive points i against every j >= the
        block's first, one product of the stacked frames holding at most
        PAIR_CHUNK_ELEMENTS entries, so memory stays flat in the pairs.
        """
        k, m = len(self.points), self.m
        # columns a m .. a m + m - 1 hold the frame of point a
        frames = self._frame_stack().transpose(1, 0, 2).reshape(self.n, k * m)
        adjoint = frames.conj()
        lo = start = 0
        while lo < k:
            hi = min(k, lo + max(1, pairbatch.PAIR_CHUNK_ELEMENTS // (m * m * (k - lo))))
            # the pairs (i, j), lo <= i < hi, j >= i, are the next ones in pair order
            end = start + (hi - lo) * (2 * k - lo - hi + 1) // 2
            block = _cross_grams(adjoint[:, lo * m : hi * m], frames[:, lo * m :]).reshape(hi - lo, m, k - lo, m)
            yield block[first[start:end] - lo, :, second[start:end] - lo, :]
            lo, start = hi, end

    def invariant_weights(self) -> tuple:
        """Angle invariants (e_1, .., e_m) with the number of ordered pairs each stands for.

        Exact mode: the distinct invariants, a list of ``Fraction`` tuples,
        and their counts from :meth:`invariant_classes`.  Float mode: the
        invariant of every unordered pair (i, j), i <= j, as the rows of a
        float array, from Newton's identities on chunked cross-Grams, each
        of weight 1 (i = j) or 2.  Neither builds a per-pair table.
        """
        if self.mode == EXACT:
            classes = self.invariant_classes()
            return list(classes), np.array(list(classes.values()), dtype=np.int64)
        first, second = _pair_indices(len(self.points))
        invariants = np.concatenate([_gram_invariants(g) for g in self._float_grams(first, second)])
        return invariants, np.where(first == second, 1, 2)

    def pair_angles(self) -> dict:
        """Principal angles keyed by index pair (i, j), i <= j, computed once.

        Exact angles are read off each distinct invariant of the pair
        source's table once (:func:`pairbatch.atom_table` or the batch's);
        float angles off the singular values of the chunked cross-Grams.
        """
        if self._pairs is None:
            first, second = _pair_indices(len(self.points))
            if self.mode == FLOAT:
                angles = np.concatenate([_gram_angles(g) for g in self._float_grams(first, second)])
                values = map(tuple, angles.tolist())
            else:
                found, table = self._pair_source()
                invariants, classes = atom_table(*found, self.m) if found else table
                angles = [invariant_angles(e) for e in invariants]
                values = (angles[c] for c in classes.tolist())
            self._pairs = dict(zip(zip(first.tolist(), second.tolist()), values))
        return self._pairs

    def angle_matrix(self) -> list:
        """Full pairwise principal-angle matrix, diagonal included."""
        pairs = self.pair_angles()
        k = len(self.points)
        return [[pairs[min(i, j), max(i, j)] for j in range(k)] for i in range(k)]

    def angle_classes(self) -> dict:
        """Multiplicities of angle vectors over all ordered pairs."""
        return _ordered_counts(self.pair_angles())

    def is_antipodal(self, tol: float = DEFAULT_TOL) -> bool:
        """True when every pair of points is antipodal.

        Exact configurations decide it from the pair invariants, with no
        angle found.
        """
        if self.mode == EXACT:
            return all(antipodal_invariant(e) for e in self.invariant_classes())
        grams = self._float_grams(*_pair_indices(len(self.points)))
        return all(antipodal_angles(y, FLOAT, tol) for g in grams for y in _gram_angles(g).tolist())

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "mode": self.mode,
            "label": self.label,
            "points": [p.to_json() for p in self.points],
        }

    @staticmethod
    def from_json(data: dict) -> "SubspaceConfiguration":
        """Configuration from its JSON document: the header is checked first, then one load pass."""
        if not isinstance(data, dict):
            raise ValueError("configuration must be a JSON object")
        points = data.get("points")
        if not isinstance(points, list) or not all(isinstance(p, dict) for p in points):
            raise ValueError("'points' must be a list of objects")
        for p in points:
            rows = p.get("rows")
            if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
                raise ValueError("each point's 'rows' must be a list of lists")
        label = data.get("label", "")
        if not isinstance(label, str):
            raise ValueError("'label' must be a string")
        declared = (data.get("m"), data.get("n"))
        # JSON integers only: int() would truncate 1.9 and accept true
        if any(isinstance(v, bool) or not isinstance(v, int) for v in declared):
            raise ValueError("'m' and 'n' must be integers")
        mode = data.get("mode", EXACT)
        if mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown mode {mode!r}")
        pts, frames = _load_points([p["rows"] for p in points], mode, declared)
        config = SubspaceConfiguration(pts, label=label)
        config._frames = frames
        return config


def _pair_indices(k: int) -> tuple:
    """Index arrays (first, second) of the unordered pairs i <= j of k points, in pair order.

    Row i holds the k - i pairs (i, i) .. (i, k - 1) from offset
    o_i = k + (k - 1) + .. + (k - i + 1), so pair t of row i has
    j = t - (o_i - i).  Both arrays come from repeats of the row lengths,
    with no Python loop and no k x k mask.
    """
    lengths = np.arange(k, 0, -1, dtype=np.int64)
    first = np.repeat(np.arange(k, dtype=np.int64), lengths)
    second = np.arange(len(first), dtype=np.int64)
    second -= np.repeat(np.cumsum(lengths) - lengths - np.arange(k), lengths)
    return first, second


def _ordered_counts(table: dict) -> dict:
    """Multiplicities of the values of an (i, j), i <= j pair table over ordered pairs."""
    counts: dict = {}
    for (i, j), v in table.items():
        counts[v] = counts.get(v, 0) + (1 if i == j else 2)
    return counts


def _check_pair(a: SubspacePoint, b: SubspacePoint):
    if (a.m, a.n) != (b.m, b.n):
        raise ValueError(f"ambient mismatch: ({a.m},{a.n}) vs ({b.m},{b.n})")
    if a.mode != b.mode:
        raise ValueError(f"mode mismatch: {a.mode} vs {b.mode}")


def _cross_grams(adjoint: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """A^H F for frames A and F side by side in columns, A given conjugated as ``adjoint``.

    ``einsum`` rather than ``@``: on a 2-core Xeon the complex BLAS call
    behind ``@`` took 16 ms for the 120 x 120 product of the 60 frames of
    a G(2, 6) set, ``einsum`` 0.5 ms.
    """
    return np.einsum("ni,nj->ij", adjoint, frames)


def _gram_angles(grams: np.ndarray) -> np.ndarray:
    """Descending principal angles per cross-Gram: squared singular values, clipped to [0, 1]."""
    return np.clip(np.linalg.svd(grams, compute_uv=False), 0.0, 1.0) ** 2


def _gram_invariants(grams: np.ndarray) -> np.ndarray:
    """e_1 .. e_m of the angles per cross-Gram G, as the rows of a float array.

    The angles are the eigenvalues of the Hermitian W = G^H G, so the
    power sums are p_k = tr(W^a W^b) = Re sum (W^a)_ij conj((W^b)_ij) with
    a = ceil(k/2), b = floor(k/2); e_k follows by Newton's identities
    k e_k = sum_i (-1)^(i-1) e_(k-i) p_i.  Every term has size at most
    C(m, k-i) m, so the absolute error stays a few eps times their sum.
    """
    m = grams.shape[-1]
    w = np.einsum("pki,pkj->pij", grams.conj(), grams)
    powers = [np.eye(m), w]
    e = [np.ones(len(grams))]
    p = [None]
    for k in range(1, m + 1):
        a, b = (k + 1) // 2, k // 2
        if len(powers) <= a:
            powers.append(np.einsum("pij,pjk->pik", powers[-1], w))
        x, y = powers[a], powers[b]
        p.append((x.real * y.real + x.imag * y.imag).sum(axis=(1, 2)))
        total = sum((-1) ** (i - 1) * e[k - i] * p[i] for i in range(1, k + 1))
        e.append(total / k)
    return np.stack(e[1:], axis=1)


def pair_invariant(a: SubspacePoint, b: SubspacePoint) -> tuple:
    """Elementary symmetric values (e_1, .., e_m) of an exact pair's angles.

    A batch of one pair through :func:`invariant_batch`.  No root is
    found, so the invariant exists whether or not the angles are rational.
    """
    _check_pair(a, b)
    if a.mode != EXACT:
        raise ValueError("angle invariants are exact-mode only")
    invariants, _ = invariant_batch([a, b], [0], [1])
    return invariants[0]


def _taylor_shift(q: list, z: int) -> list:
    """Coefficients of q(x + z), descending in degree like q's, by repeated synthetic division."""
    a = list(q)
    for top in range(len(a) - 1, 0, -1):
        for j in range(1, top + 1):
            a[j] += z * a[j - 1]
    return a


def invariant_angles(e: tuple) -> tuple:
    """Descending angles with elementary symmetric values e, by integer bisection.

    With d the lcm of the denominators of e, q(x) = prod (x - d y_i) has
    the integer coefficients (-1)^k d^k e_k and its roots in [0, d], so a
    rational angle is an integer over d.  The roots are real, so by
    Descartes' rule of signs q(x + z) has only positive coefficients
    exactly when z exceeds the largest root; bisection over the integers
    finds its floor r.  It is the root when q(x + r) has no negative
    coefficient, and its multiplicity is the number of vanishing low
    coefficients; it is divided out of q exactly, by shifting back, and
    the search goes on below r.  Any other outcome, an irrational angle,
    raises :class:`IrrationalAnglesError`.
    """
    d = math.lcm(*(v.denominator for v in e))
    q = [1] + [(-1) ** k * v.numerator * (d**k // v.denominator) for k, v in enumerate(e, 1)]
    angles = []
    hi = d
    while len(q) > 1:
        lo, up = 0, hi + 1
        while up - lo > 1:
            mid = (lo + up) // 2
            if all(c > 0 for c in _taylor_shift(q, mid)):
                up = mid
            else:
                lo = mid
        shifted = _taylor_shift(q, lo)
        mult = next(k for k, c in enumerate(reversed(shifted)) if c)
        if not mult or any(c < 0 for c in shifted):
            raise IrrationalAnglesError(
                "exact spectrum has irrational principal angles; "
                "convert the points to float mode"
            )
        # q(x + r) = x^mult s(x), so q(x) / (x - r)^mult = s(x - r)
        q = _taylor_shift(shifted[:-mult], -lo)
        angles.extend([rational(lo, d)] * mult)
        hi = lo
    return tuple(angles)


def antipodal_invariant(e: tuple) -> bool:
    """True when the angles with invariant e all lie in {0, 1}.

    That happens exactly when e_1 is an integer r and e_k = C(r, k) for
    every k: the angle polynomial is then x^(m-r) (x - 1)^r.
    """
    r = e[0]
    return (
        r.denominator == 1
        and 0 <= r <= len(e)
        and all(v == math.comb(int(r), k) for k, v in enumerate(e, 1))
    )


def principal_angles(a: SubspacePoint, b: SubspacePoint) -> tuple:
    """Descending eigenvalues of the composed projectors, m of them.

    Exact mode reads them off :func:`pair_invariant` by
    :func:`invariant_angles`; an irrational spectrum raises
    :class:`IrrationalAnglesError`.
    """
    _check_pair(a, b)
    if a.mode == FLOAT:
        return tuple(_gram_angles(_cross_grams(a.frame.conj(), b.frame)[None])[0].tolist())
    return invariant_angles(pair_invariant(a, b))


def antipodal_angles(y: tuple, mode: str, tol: float = DEFAULT_TOL) -> bool:
    """True when every angle in y lies in {0, 1} (within tol in float mode)."""
    if mode == EXACT:
        return all(v == 0 or v == 1 for v in y)
    return all(min(abs(v), abs(1 - v)) <= tol for v in y)


@lru_cache(maxsize=None)
def _identity(m: int) -> list:
    """The m x m identity as rows of (re, im) pairs, shared by the coordinate points of that m."""
    return [[(int(i == j), 0) for j in range(m)] for i in range(m)]


def coordinate_subspace(indices: Iterable[int], n: int) -> SubspacePoint:
    """Exact span of the standard basis vectors with the given 0-based indices.

    Its rows are those distinct unit vectors, so their Gram matrix is the
    identity and the point carries ``inv_num = I``, ``inv_den = 1`` with
    no elimination.  That inverse rests on the indices, so each must be
    an int in 0 .. n - 1 (else :class:`ValueError`), and a repeated one
    raises :class:`RankDeficiencyError`.
    """
    indices = list(indices)
    for i in indices:
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < n:
            raise ValueError(f"coordinate index {i!r} is not an int in 0..{n - 1}")
    m = len(indices)
    _check_shape(m, n)
    if len(set(indices)) < m:
        raise RankDeficiencyError(f"basis rank below {m}")
    rows = []
    for i in indices:
        row = [(0, 0)] * n
        row[i] = (1, 0)
        rows.append(row)
    return SubspacePoint._exact(rows, [1] * m, (_identity(m), 1))


def great_antipodal(m: int, n: int) -> SubspaceConfiguration:
    """All coordinate m-subspaces of C^n, in lexicographic subset order.

    This is the standard maximum antipodal configuration; its cardinality
    binomial(n, m) is the largest any antipodal set can reach.  A count
    over ANTIPODAL_POINT_BUDGET raises :class:`PointLimitError` before
    any point is built.
    """
    if m < 1 or n < 2 * m:
        raise ValueError(f"need 1 <= m and 2m <= n, got ({m}, {n})")
    # C(n, k) increases in k <= m since n >= 2m, so it is counted up
    # only until it passes the budget, never to a huge C(n, m)
    size = 1
    for k in range(1, m + 1):
        size = size * (n - k + 1) // k
        if size > ANTIPODAL_POINT_BUDGET:
            raise PointLimitError(
                f"C({n}, {m}) points exceed the budget of {ANTIPODAL_POINT_BUDGET}"
            )
    pts = [coordinate_subspace(idx, n) for idx in combinations(range(n), m)]
    return SubspaceConfiguration(pts, label=f"great-antipodal({m},{n})")


def orthogonal_split_config(m: int, n: int) -> SubspaceConfiguration:
    """The n/m coordinate blocks of size m; requires m to divide n."""
    if m < 1 or n % m:
        raise ValueError(f"{m} does not divide {n}")
    pts = [
        coordinate_subspace(range(k * m, (k + 1) * m), n) for k in range(n // m)
    ]
    return SubspaceConfiguration(pts, label=f"orthogonal-split({m},{n})")


def six_point_config() -> SubspaceConfiguration:
    """Six exact planes in C^4: a minimum-size design that is not antipodal.

    Four coordinate planes plus two planes through e1 +- i*e2 and e3.  Every
    pair has vanishing last principal angle, yet two of the cross angles
    equal 1/2, so the set fails the antipodality test while meeting the
    design bound.
    """
    e3 = [(0, 0), (0, 0), (1, 0), (0, 0)]
    pts = [
        coordinate_subspace([0, 1], 4),
        coordinate_subspace([2, 3], 4),
        coordinate_subspace([0, 3], 4),
        coordinate_subspace([1, 3], 4),
        SubspacePoint._exact([[(1, 0), (0, 1), (0, 0), (0, 0)], e3], [1, 1]),
        SubspacePoint._exact([[(1, 0), (0, -1), (0, 0), (0, 0)], e3], [1, 1]),
    ]
    return SubspaceConfiguration(pts, label="six-point(2,4)")


def random_subspace(m: int, n: int, seed: int = 0) -> SubspacePoint:
    """Haar-ish float point from a seeded complex Gaussian basis."""
    if n < 2 * m:
        raise ValueError(f"need n >= 2m, got ({m}, {n})")
    rng = np.random.default_rng(seed)
    mtx = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return SubspacePoint(mtx, mode=FLOAT)


def angles_to_json(y: tuple) -> list:
    if y and isinstance(y[0], float):
        return [float(v) for v in y]
    return [rational_to_str(v) for v in y]
