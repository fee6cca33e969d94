"""Points of G(m, n), principal angles, geodesic symmetries, antipodality.

A point is an m-dimensional subspace of C^n given by a full-rank m x n
basis matrix whose rows span it.  Two modes coexist:

* exact mode stores Gaussian-rational entries and never orthonormalizes
  (that would need square roots).  Each point also keeps its rows scaled
  by the lcm of their denominators, as Gaussian integers in ``(re, im)``
  int pairs, and the determinant and adjugate of their integer Gram
  matrix.  A pair's angles times det G_a det G_b are the eigenvalues of
  the integer matrix adj(G_a) C adj(G_b) C^H, C the cross-Gram; its
  characteristic polynomial comes from a division-free recurrence, and
  its rescaled monic form is factored by rational-root search.  Only
  configurations with rational spectra are representable, which covers
  every bundled configuration;
* float mode stores complex entries, orthonormalizes once per point
  through a thin SVD (which also reveals the rank) and reads the angles
  off singular values, one batched SVD call per point against all later
  points when a configuration fills its pair table.

Principal angles are returned as descending tuples y with entries in
[0, 1]; the pair (a, b) is antipodal exactly when every entry is 0 or 1.
A configuration computes the angles of each unordered pair once and
answers every pairwise question from that table.
"""

from __future__ import annotations

import math
from itertools import combinations, combinations_with_replacement
from typing import Iterable, Sequence

import numpy as np

from .exactlinalg import (
    gaussian_adjugate,
    gaussian_charpoly,
    gaussian_mat_mul,
    mat_mul,
    rational_roots,
)
from .scalars import CX_ONE, CX_ZERO, ExactComplex, as_exact_complex, rational, rational_to_str

EXACT = "exact"
FLOAT = "float"

RANK_TOL = 1e-10


class IrrationalAnglesError(ArithmeticError):
    """Exact spectrum does not split over the rationals; use float mode."""


def _as_complex_entry(v) -> complex:
    """Float-mode matrix entry: number, [re, im] pair, or exact string."""
    parts = v if isinstance(v, (list, tuple)) else (v,)
    if any(isinstance(p, bool) for p in parts):
        raise ValueError(f"not a float matrix entry: {v!r}")
    try:
        if isinstance(v, (list, tuple)):
            re, im = v
            z = complex(float(re), float(im))
        elif isinstance(v, str):
            z = complex(as_exact_complex(v))
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


class SubspacePoint:
    """An m-dimensional subspace of C^n spanned by the rows of ``basis``.

    Float points also keep ``frame``, orthonormal columns spanning the
    subspace.  Exact points have ``frame = None`` and keep instead
    ``rows``, each basis row times the lcm of its denominators as
    ``(re, im)`` int pairs, with the determinant ``gram_det`` (an int) and
    the adjugate ``gram_adj`` of the Gram matrix of those rows.
    """

    __slots__ = ("basis", "mode", "m", "n", "frame", "rows", "gram_det", "gram_adj")

    def __init__(self, basis, mode: str = EXACT):
        if mode == EXACT:
            rows = tuple(
                tuple(as_exact_complex(v) for v in row) for row in basis
            )
            self.m = len(rows)
            self.n = len(rows[0]) if rows else 0
            if any(len(r) != self.n for r in rows):
                raise ValueError("ragged basis matrix")
            _check_shape(self.m, self.n)
            self.basis = rows
            self.frame = None
            self.rows = [_integer_row(r) for r in rows]
            gram = gaussian_mat_mul(self.rows, _adjoint(self.rows))
            det, self.gram_adj = gaussian_adjugate(gram)
            # Hermitian, so the determinant is real; zero exactly when the
            # rows are dependent
            self.gram_det = det[0]
            if not self.gram_det:
                raise RankDeficiencyError(f"basis rank below {self.m}")
        elif mode == FLOAT:
            if isinstance(basis, np.ndarray):
                arr = basis.astype(complex)
            else:
                arr = np.array(
                    [[_as_complex_entry(v) for v in row] for row in basis],
                    dtype=complex,
                )
            if arr.ndim != 2:
                raise ValueError("basis must be a matrix")
            self.m, self.n = arr.shape
            _check_shape(self.m, self.n)
            arr.setflags(write=False)
            self.basis = arr
            self.frame = _orthonormal_rows(arr)
            self.rows = self.gram_det = self.gram_adj = None
        else:
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode

    def to_float(self) -> "SubspacePoint":
        if self.mode == FLOAT:
            return self
        arr = [[complex(v) for v in row] for row in self.basis]
        return SubspacePoint(arr, mode=FLOAT)

    def recombined(self, coeffs) -> "SubspacePoint":
        """Same subspace presented by an invertible recombination of rows."""
        if self.mode == EXACT:
            cf = [[as_exact_complex(v) for v in row] for row in coeffs]
            rows = mat_mul(cf, [list(r) for r in self.basis])
            return SubspacePoint(rows, mode=EXACT)
        cf = np.array(coeffs, dtype=complex)
        return SubspacePoint(cf @ self.basis, mode=FLOAT)

    def to_json(self) -> dict:
        if self.mode == EXACT:
            return {"rows": [[str(v) for v in row] for row in self.basis]}
        return {
            "rows": [
                [[float(v.real), float(v.imag)] for v in row] for row in self.basis
            ]
        }

    def __repr__(self):
        return f"SubspacePoint(m={self.m}, n={self.n}, mode={self.mode})"


class SubspaceConfiguration:
    """Ordered list of points sharing one ambient G(m, n) and one mode."""

    __slots__ = ("points", "label", "m", "n", "mode", "_pairs")

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
        self._pairs = None

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, k):
        return self.points[k]

    def to_float(self) -> "SubspaceConfiguration":
        return SubspaceConfiguration(
            [p.to_float() for p in self.points], label=self.label
        )

    def pair_angles(self) -> dict:
        """Principal angles keyed by index pair (i, j), i <= j, computed once."""
        if self._pairs is None:
            pts = self.points
            if self.mode == FLOAT:
                frames = np.stack([p.frame for p in pts])
                self._pairs = {
                    (i, j): y
                    for i, p in enumerate(pts)
                    for j, y in enumerate(_float_angles(p.frame, frames[i:]), start=i)
                }
            else:
                pairs = combinations_with_replacement(range(len(pts)), 2)
                self._pairs = {(i, j): principal_angles(pts[i], pts[j]) for i, j in pairs}
        return self._pairs

    def angle_matrix(self) -> list:
        """Full pairwise principal-angle matrix, diagonal included."""
        pairs = self.pair_angles()
        k = len(self.points)
        return [[pairs[min(i, j), max(i, j)] for j in range(k)] for i in range(k)]

    def angle_classes(self) -> dict:
        """Multiplicities of angle vectors over all ordered pairs."""
        counts: dict = {}
        for (i, j), y in self.pair_angles().items():
            counts[y] = counts.get(y, 0) + (1 if i == j else 2)
        return counts

    def is_antipodal(self, tol: float = 1e-8) -> bool:
        """True when every pair of points is antipodal."""
        return all(antipodal_angles(y, self.mode, tol) for y in self.pair_angles().values())

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
        mode = data.get("mode", EXACT)
        pts = [SubspacePoint(p["rows"], mode=mode) for p in points]
        config = SubspaceConfiguration(pts, label=label)
        declared = (data.get("m"), data.get("n"))
        # JSON integers only: int() would truncate 1.9 and accept true
        if any(isinstance(v, bool) or not isinstance(v, int) for v in declared):
            raise ValueError("'m' and 'n' must be integers")
        if (config.m, config.n) != declared:
            raise ValueError("declared (m, n) disagree with the point shapes")
        return config


def _row_inner(u, v) -> ExactComplex:
    total = CX_ZERO
    for x, y in zip(u, v):
        total = total + x * y.conjugate()
    return total


def _integer_row(row) -> list:
    """The row times the lcm of its denominators, as (re, im) int pairs."""
    parts = [x for v in row for x in (v.re, v.im)]
    scale = math.lcm(*(x.denominator for x in parts))
    ints = [x.numerator * (scale // x.denominator) for x in parts]
    return list(zip(ints[::2], ints[1::2]))


def _adjoint(rows) -> list:
    """Conjugate transpose of a matrix of Gaussian-integer pairs."""
    return [[(re, -im) for re, im in col] for col in zip(*rows)]


def _check_pair(a: SubspacePoint, b: SubspacePoint):
    if (a.m, a.n) != (b.m, b.n):
        raise ValueError(f"ambient mismatch: ({a.m},{a.n}) vs ({b.m},{b.n})")
    if a.mode != b.mode:
        raise ValueError(f"mode mismatch: {a.mode} vs {b.mode}")


def _orthonormal_rows(arr: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the row space, via the thin SVD.

    Raises when the singular values span a ratio beyond ``RANK_TOL``.
    """
    u, s, _ = np.linalg.svd(arr.T, full_matrices=False)
    if s.size < arr.shape[0] or (s.size and s[-1] <= RANK_TOL * s[0]):
        raise RankDeficiencyError("float basis is numerically rank deficient")
    u.setflags(write=False)
    return u


def _float_angles(frame: np.ndarray, others: np.ndarray) -> list:
    """Principal angles of one float frame against a stack of frames, batched."""
    s = np.linalg.svd(frame.conj().T @ others, compute_uv=False)
    return [tuple(row) for row in (np.clip(s, 0.0, 1.0) ** 2).tolist()]


def _angle_polynomial(a: SubspacePoint, b: SubspacePoint) -> list:
    """Monic polynomial of an exact pair's angles, ascending in degree.

    The integer matrix adj(G_a) C adj(G_b) C^H has the angles times
    D = det G_a det G_b as eigenvalues; from its division-free
    characteristic polynomial sum p_k x^k this returns the
    ``Fraction`` values p_k / D^(m-k).
    """
    cross = gaussian_mat_mul(a.rows, _adjoint(b.rows))
    product = gaussian_mat_mul(
        gaussian_mat_mul(a.gram_adj, cross), gaussian_mat_mul(b.gram_adj, _adjoint(cross))
    )
    scale = a.gram_det * b.gram_det
    poly = []
    for k, (re, im) in enumerate(gaussian_charpoly(product)):
        if im:
            raise ArithmeticError("characteristic polynomial not real")
        poly.append(rational(re, scale ** (a.m - k)))
    return poly


def principal_angles(a: SubspacePoint, b: SubspacePoint) -> tuple:
    """Descending eigenvalues of the composed projectors, m of them.

    Exact mode factors the pair's angle polynomial, computed over
    Gaussian integers without division, by rational-root search; an
    irrational spectrum raises :class:`IrrationalAnglesError`.
    """
    _check_pair(a, b)
    if a.mode == FLOAT:
        return _float_angles(a.frame, b.frame[None])[0]

    poly = _angle_polynomial(a, b)
    roots, leftover = rational_roots(poly)
    if leftover:
        raise IrrationalAnglesError(
            "exact spectrum has irrational principal angles; "
            "convert the points to float mode"
        )
    vals = []
    for root, mult in roots:
        vals.extend([root] * mult)
    vals.sort(reverse=True)
    return tuple(vals)


def symmetry_image(a: SubspacePoint, b: SubspacePoint) -> SubspacePoint:
    """Image of b under the geodesic symmetry at a (reflection 2P_a - I)."""
    _check_pair(a, b)
    if a.mode == FLOAT:
        qa = a.frame
        cols = b.basis.T
        reflected = 2.0 * (qa @ (qa.conj().T @ cols)) - cols
        return SubspacePoint(reflected.T, mode=FLOAT)
    # P_a = A^H G^-1 A, and A^H adj(G) A / det G is the same for the
    # integer rows of a
    a_rows = [[ExactComplex(*v) for v in row] for row in a.rows]
    adj = [[ExactComplex(*v) for v in row] for row in a.gram_adj]
    cross = [[_row_inner(rb, ra) for ra in a_rows] for rb in b.basis]
    proj = mat_mul(mat_mul(cross, adj), a_rows)
    twice = rational(2, a.gram_det)
    rows = [[twice * p - v for p, v in zip(pr, br)] for pr, br in zip(proj, b.basis)]
    return SubspacePoint(rows, mode=EXACT)


def antipodal_angles(y: tuple, mode: str, tol: float = 1e-8) -> bool:
    """True when every angle in y lies in {0, 1} (within tol in float mode)."""
    if mode == EXACT:
        return all(v == 0 or v == 1 for v in y)
    return all(min(abs(v), abs(1 - v)) <= tol for v in y)


def coordinate_subspace(indices: Iterable[int], n: int) -> SubspacePoint:
    """Exact span of the standard basis vectors with the given 0-based indices."""
    rows = []
    for i in indices:
        row = [CX_ZERO] * n
        row[i] = CX_ONE
        rows.append(row)
    return SubspacePoint(rows, mode=EXACT)


def great_antipodal(m: int, n: int) -> SubspaceConfiguration:
    """All coordinate m-subspaces of C^n, in lexicographic subset order.

    This is the standard maximum antipodal configuration; its cardinality
    binomial(n, m) is the largest any antipodal set can reach.
    """
    if m < 1 or n < 2 * m:
        raise ValueError(f"need 1 <= m and 2m <= n, got ({m}, {n})")
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
    i_unit = ExactComplex(0, 1)
    pts = [
        coordinate_subspace([0, 1], 4),
        coordinate_subspace([2, 3], 4),
        coordinate_subspace([0, 3], 4),
        coordinate_subspace([1, 3], 4),
        SubspacePoint([[CX_ONE, i_unit, CX_ZERO, CX_ZERO],
                       [CX_ZERO, CX_ZERO, CX_ONE, CX_ZERO]], mode=EXACT),
        SubspacePoint([[CX_ONE, -i_unit, CX_ZERO, CX_ZERO],
                       [CX_ZERO, CX_ZERO, CX_ONE, CX_ZERO]], mode=EXACT),
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
