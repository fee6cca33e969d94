"""Field-arithmetic helpers kept as oracles for the package's exact code.

The package computes exact pair geometry over Gaussian integers with no
fraction formed; these helpers are the older, independent routes through
Gaussian-rational elimination and the Faddeev-LeVerrier and Berkowitz
recurrences that the tests check it against:

* ``CX_ZERO``, ``CX_ONE``, ``as_exact_complex``, ``mat_mul``: Gaussian
  rationals as ``ExactComplex`` values, and the matrix product over any
  scalars (+, -, *, truthiness as the zero test);
* ``exact_basis``, ``exact_complex_point``, ``recombined``: an exact
  point's basis as ``ExactComplex`` rows, read off its Gaussian-integer
  rows and scales, an exact point built from such rows through their
  text, and the same subspace spanned by recombined rows, in both
  modes;
* ``pair_invariants``: a configuration's per-pair table of angle
  invariants, read off one pair batch and not off the atoms;
* ``det``: the determinant by Bareiss's fraction-free elimination over
  any exact ring or field, the oracle for the package's integer minors
  (``exactlinalg.minor``);
* ``solve``, ``invert``, ``rank``, ``null_space``: Gaussian elimination
  over an exact field;
* ``charpoly``: the monic characteristic polynomial by Faddeev-LeVerrier,
  and ``angle_polynomial``, the polynomial of a pair's principal angles
  built from Gram inverses;
* ``gaussian_charpoly``, ``gaussian_adjugate``: the characteristic
  polynomial of a Gaussian-integer matrix by Berkowitz's division-free
  recurrence, and the determinant and adjugate it yields by
  Cayley-Hamilton, with ``gaussian_mat_mul`` and ``_adjoint``, against
  which the package's Gram adjugate by elimination is checked;
* ``pair_invariant_oracle``: a pair's invariant (e_1, .., e_m) one pair
  at a time over the integers, against which the multi-modular batch is
  checked;
* ``per_entry_point``: an exact point built entry by entry through
  ``ExactComplex`` and ``Fraction``, the route the load pass replaced,
  its text written by ``fraction_text`` from the ``Fraction`` parts;
* ``same_subspace``, ``orthogonal_complement``, ``is_antipodal_pair``:
  point-level questions answered from the basis rows;
* ``symmetry_image``: the image of a point under the geodesic symmetry
  2 P_a - I at another, in both modes; "s_a(b) = b for every pair" is
  the antipodality of an exact set, which the atom path of
  ``pairbatch.atoms`` certifies;
* ``prepare_point``, ``elementary_all``, ``complete_all``,
  ``elementary_eval``, ``complete_eval``: scalar symmetric-function
  evaluators, one point at a time;
* ``schur_jacobi_trudi``: s_sigma by the h-form Jacobi-Trudi
  determinant det(h_(sigma_i - i + j)), against which the package's
  e-polynomials are checked;
* ``scaled_rows``, ``row_values``, ``expansion_values``: exact points
  as one row (d, e_1(a), .., e_k(a)) each and e-polynomials evaluated
  row by row, the per-point layout that the package's object-int
  columns replaced;
* ``expansion_at_ones``, ``scaled_expansion``: a ``SchurExpansion``'s
  value at the all-ones point and its multiple by a rational;
* ``invariant_columns``, ``normalized_schur_at_invariants``,
  ``schur_moments``, ``moment_defects``: design defects by the route
  that :func:`zonal.kernel_sums` replaced.  Each kernel is expanded over
  its down-set, every s_sigma of the union is evaluated at the pair
  invariants as its e-polynomial, and each defect is the kernel's
  coefficients dotted with the count-weighted Schur moments, exact or
  float;
* ``horner_tables``: the d-scaled Jacobi-h tables of exact points summed
  from the Jacobi coefficients c_(k, r) by Horner in -d, O(top^2) per
  point and column, the reference for the package's three-term
  recurrence.
"""

import math
import operator

import numpy as np

from grassdesign.grassmann import (
    EXACT,
    FLOAT,
    SubspacePoint,
    _check_pair,
    _pair_indices,
    antipodal_angles,
    principal_angles,
)
from grassdesign.pairbatch import invariant_batch
from grassdesign.partitions import Partition
from grassdesign.scalars import EXACT_REAL_TYPES, ExactComplex, as_rational, is_exact_real, rational
from grassdesign.symfunc import (
    SchurExpansion,
    ScaledPoints,
    _elementary_terms,
    _evaluate,
    _top_index,
    exact_schur_sum,
    scaled_point,
    schur_e_polynomial,
    schur_norm,
)
from grassdesign.zonal import _jacobi_row, zonal_kernel


CX_ZERO = ExactComplex(0)
CX_ONE = ExactComplex(1)


def as_exact_complex(x) -> ExactComplex:
    """An ``ExactComplex``, an int or ``Fraction``, or an exact entry string as an ``ExactComplex``."""
    if isinstance(x, ExactComplex):
        return x
    if isinstance(x, EXACT_REAL_TYPES) and not isinstance(x, bool):
        return ExactComplex(x)
    if isinstance(x, str):
        return ExactComplex.from_str(x)
    raise ValueError(f"not a Gaussian rational: {x!r}")


def mat_mul(a, b):
    """The product of two matrices of any scalars, skipping zero entries of ``a``."""
    n, k = len(a), len(b)
    if k and any(len(r) != k for r in a):
        raise ValueError("inner dimension mismatch")
    width = len(b[0]) if k else 0
    out = []
    for i in range(n):
        row = []
        for j in range(width):
            s = 0
            for t in range(k):
                x = a[i][t]
                if x:
                    s = s + x * b[t][j]
            row.append(s)
        out.append(row)
    return out


def fraction_text(z: ExactComplex) -> str:
    """The text form of a Gaussian rational, written from its ``Fraction`` parts."""
    if not z.im:
        return str(z.re)
    if z.im < 0:
        return f"{z.re}-{-z.im}*i"
    return f"{z.re}+{z.im}*i"


def exact_basis(point: SubspacePoint) -> tuple:
    """An exact point's basis as a tuple of ``ExactComplex`` tuples, row i equal to rows[i] / scales[i]."""
    return tuple(
        tuple(ExactComplex(rational(re, s), rational(im, s)) for re, im in row)
        for row, s in zip(point.rows, point.scales)
    )


def exact_complex_point(rows) -> SubspacePoint:
    """The exact point spanned by rows of ``ExactComplex`` values (ints and ``Fraction`` too), read from their text."""
    return SubspacePoint([[str(v) for v in row] for row in rows], mode=EXACT)


def recombined(point: SubspacePoint, coeffs) -> SubspacePoint:
    """The same subspace presented by an invertible recombination of its rows."""
    if point.mode == EXACT:
        cf = [[as_exact_complex(v) for v in row] for row in coeffs]
        return exact_complex_point(mat_mul(cf, [list(r) for r in exact_basis(point)]))
    return SubspacePoint(np.array(coeffs, dtype=complex) @ point.basis, mode=FLOAT)


def pair_invariants(config) -> dict:
    """Angle invariants (e_1, .., e_m) of an exact configuration keyed by index pair (i, j), i <= j, from one batch."""
    first, second = _pair_indices(len(config))
    invariants, classes = invariant_batch(config.points, first, second)
    return {(i, j): invariants[c] for i, j, c in zip(first.tolist(), second.tolist(), classes.tolist())}


def det(rows):
    """Determinant by Bareiss's fraction-free elimination (Math. Comp. 22, 1968).

    Each step replaces a_ij by (a_kk a_ij - a_ik a_kj) / p, p the previous
    pivot; the division is exact, so integer input stays integer (floor
    division on ints, true division on field scalars), and a zero pivot is
    swapped for a lower row with a nonzero entry in its column.  O(n^3)
    ring operations over ints, ``Fraction`` or Gaussian rationals.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    a = [list(r) for r in rows]
    exact = all(type(v) is int for r in a for v in r)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, top = a[k][k], a[k]
        for row in a[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, n):
                t = pivot * row[j] - lead * top[j]
                row[j] = t // prev if exact else t / prev
        prev = pivot
    return sign * a[-1][-1] if n else 1


class SingularMatrixError(ArithmeticError):
    """Exact linear system has no unique solution."""


def solve(rows, rhs):
    """Solve A x = b by Gaussian elimination over an exact field.

    ``rhs`` may be a vector or a matrix (list of rows); pivots are the
    first exactly-nonzero entries, so do not use this on floats.
    """
    n = len(rows)
    vector_rhs = rhs and not isinstance(rhs[0], (list, tuple))
    b = [[v] for v in rhs] if vector_rhs else [list(r) for r in rhs]
    a = [list(r) for r in rows]
    if len(b) != n:
        raise ValueError("right-hand side length mismatch")
    width = len(b[0]) if n else 0

    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise SingularMatrixError(f"no pivot in column {col}")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
        inv = a[col][col]
        for r in range(n):
            if r == col or not a[r][col]:
                continue
            f = a[r][col] / inv
            for c in range(col, n):
                a[r][c] = a[r][c] - f * a[col][c]
            for c in range(width):
                b[r][c] = b[r][c] - f * b[col][c]

    out = [[b[r][c] / a[r][r] for c in range(width)] for r in range(n)]
    if vector_rhs:
        return [row[0] for row in out]
    return out


def invert(rows):
    n = len(rows)
    eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    return solve(rows, eye)


def rank(rows):
    """Rank over an exact field by row reduction."""
    a = [list(r) for r in rows]
    n = len(a)
    width = len(a[0]) if n else 0
    r = 0
    for col in range(width):
        piv = next((i for i in range(r, n) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(n):
            if i != r and a[i][col]:
                f = a[i][col] / a[r][col]
                for c in range(col, width):
                    a[i][c] = a[i][c] - f * a[r][c]
        r += 1
        if r == n:
            break
    return r


def null_space(rows, zero=0, one=1):
    """Basis of {x : A x = 0} over an exact field."""
    a = [list(r) for r in rows]
    n = len(a)
    width = len(a[0]) if n else 0
    pivots = []
    r = 0
    for col in range(width):
        piv = next((i for i in range(r, n) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][col]
        a[r] = [v / inv for v in a[r]]
        for i in range(n):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == n:
            break
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        vec = [zero] * width
        vec[fc] = one
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -a[prow][fc]
        basis.append(vec)
    return basis


def charpoly(rows):
    """Monic characteristic polynomial by the Faddeev-LeVerrier recurrence.

    Returns coefficients ascending in degree, ``poly[k]`` multiplying x^k,
    with ``poly[n] == 1``.  Scalars must support division by Python ints.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("characteristic polynomial of a non-square matrix")
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    mk = [list(r) for r in rows]
    for k in range(1, n + 1):
        trace = 0
        for i in range(n):
            trace = trace + mk[i][i]
        # ints divide exactly through the rational backend
        ck = -rational(trace, k) if isinstance(trace, int) else -trace / k
        coeffs[n - k] = ck
        if k == n:
            break
        for i in range(n):
            mk[i][i] = mk[i][i] + ck
        mk = mat_mul(rows, mk)
    return coeffs


def poly_eval(poly, x):
    out = 0
    for c in reversed(poly):
        out = out * x + c
    return out


def _gaussian_dot(u, v):
    """Sum of u_k v_k over Gaussian integers (no conjugation)."""
    re = im = 0
    for (xr, xi), (yr, yi) in zip(u, v):
        re += xr * yr - xi * yi
        im += xr * yi + xi * yr
    return re, im


def gaussian_mat_mul(a, b):
    """Product of two matrices of Gaussian integers as ``(re, im)`` pairs."""
    cols = list(zip(*b))
    return [[_gaussian_dot(row, col) for col in cols] for row in a]


def gaussian_charpoly(rows):
    """Characteristic polynomial det(xI - A) of a Gaussian-integer matrix.

    Berkowitz's division-free recurrence (Inf. Process. Lett. 18, 1984):
    bordering the leading block A_k by the column S, the row R and the
    diagonal entry a multiplies its polynomial by the lower-triangular
    Toeplitz matrix with first column (1, -a, -RS, -R A_k S, ...,
    -R A_k^(k-1) S).  Only ring operations occur, so the coefficients
    are Gaussian integers.  Returns ``(re, im)`` pairs ascending in
    degree, with ``poly[n] == (1, 0)``.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("characteristic polynomial of a non-square matrix")
    poly = [(1, 0)]  # descending in degree while it grows
    for k in range(n):
        block = [r[:k] for r in rows[:k]]
        border = rows[k][:k]
        vec = [r[k] for r in rows[:k]]
        ar, ai = rows[k][k]
        col = [(1, 0), (-ar, -ai)]
        for j in range(k):
            if j:
                vec = [_gaussian_dot(r, vec) for r in block]
            re, im = _gaussian_dot(border, vec)
            col.append((-re, -im))
        poly = [_gaussian_dot(col[i::-1], poly) for i in range(k + 2)]
    return poly[::-1]


def gaussian_adjugate(rows):
    """Determinant and adjugate of a Gaussian-integer matrix, division-free.

    With det(xI - A) = sum c_k x^k, Cayley-Hamilton gives
    adj(A) = (-1)^(n-1) (A^(n-1) + c_(n-1) A^(n-2) + ... + c_1 I) and
    det(A) = (-1)^n c_0; the sum is evaluated by Horner's rule.  Returns
    ``(det, adj)``, an ``(re, im)`` pair and a matrix of them.
    """
    n = len(rows)
    poly = gaussian_charpoly(rows)
    sign = -1 if n % 2 else 1
    acc = [[(int(i == j), 0) for j in range(n)] for i in range(n)]
    for cr, ci in reversed(poly[1:n]):
        acc = gaussian_mat_mul(rows, acc)
        for i in range(n):
            re, im = acc[i][i]
            acc[i][i] = (re + cr, im + ci)
    det = (sign * poly[0][0], sign * poly[0][1])
    adj = [[(-sign * re, -sign * im) for re, im in row] for row in acc]
    return det, adj


def _adjoint(rows) -> list:
    """Conjugate transpose of a matrix of Gaussian-integer pairs."""
    return [[(re, -im) for re, im in col] for col in zip(*rows)]


def _hermitian_products(a_rows, b_rows):
    return [
        [sum((x * y.conjugate() for x, y in zip(u, v)), CX_ZERO) for v in b_rows]
        for u in a_rows
    ]


def angle_polynomial(a: SubspacePoint, b: SubspacePoint) -> list:
    """Monic polynomial of the pair's angles, from the Gaussian-rational bases.

    The Faddeev-LeVerrier polynomial of G_a^-1 C G_b^-1 C^H, with G the
    Gram matrices and C the cross-Gram of the rows as given; returns
    backend rationals ascending in degree.
    """
    a_basis, b_basis = exact_basis(a), exact_basis(b)
    cross = _hermitian_products(a_basis, b_basis)
    cross_h = [[v.conjugate() for v in col] for col in zip(*cross)]
    gram_inv_a = invert(_hermitian_products(a_basis, a_basis))
    gram_inv_b = invert(_hermitian_products(b_basis, b_basis))
    product = mat_mul(mat_mul(gram_inv_a, cross), mat_mul(gram_inv_b, cross_h))
    poly = []
    for c in charpoly(product):
        c = c if isinstance(c, ExactComplex) else ExactComplex(c)
        assert not c.im
        poly.append(c.re)
    return poly


def pair_invariant_oracle(a: SubspacePoint, b: SubspacePoint) -> tuple:
    """(e_1, .., e_m) of a pair one at a time, over the integers, with no modulus.

    The per-pair route the package replaced by its multi-modular batch:
    the integer matrix adj(G_a) C adj(G_b) C^H, with unreduced Gram
    adjugates, has the angles times det G_a det G_b as eigenvalues, and
    Berkowitz's division-free polynomial gives e_k = (-1)^k c_(m-k) / D^k.
    """
    def adjugate(p):
        (det_re, _), adj = gaussian_adjugate(gaussian_mat_mul(p.rows, _adjoint(p.rows)))
        return det_re, adj

    (det_a, adj_a), (det_b, adj_b) = adjugate(a), adjugate(b)
    cross = gaussian_mat_mul(a.rows, _adjoint(b.rows))
    product = gaussian_mat_mul(
        gaussian_mat_mul(adj_a, cross), gaussian_mat_mul(adj_b, _adjoint(cross))
    )
    poly = gaussian_charpoly(product)
    scale = det_a * det_b
    out = []
    for k in range(1, a.m + 1):
        re, im = poly[a.m - k]
        assert not im
        out.append(rational((-1) ** k * re, scale**k))
    return tuple(out)


def per_entry_point(basis) -> dict:
    """``basis``, ``rows``, ``inv_num``, ``inv_den`` and ``to_json`` of an exact point, entry by entry.

    Every entry becomes an ``ExactComplex`` of two ``Fraction`` parts;
    each row is then scaled back to Gaussian integers by the lcm of its
    denominators, and the Gram inverse is the reduced Berkowitz adjugate.
    """
    exact = tuple(tuple(as_exact_complex(v) for v in row) for row in basis)
    rows = []
    for row in exact:
        parts = [x for v in row for x in (v.re, v.im)]
        scale = math.lcm(*(x.denominator for x in parts))
        ints = [x.numerator * (scale // x.denominator) for x in parts]
        rows.append(list(zip(ints[::2], ints[1::2])))
    (det, _), adj = gaussian_adjugate(gaussian_mat_mul(rows, _adjoint(rows)))
    # inv_den 0: the rows are dependent
    g = math.gcd(det, *(x for row in adj for v in row for x in v)) or 1
    return {
        "basis": exact,
        "rows": rows,
        "inv_num": [[(re // g, im // g) for re, im in row] for row in adj],
        "inv_den": det // g,
        "to_json": {"rows": [[fraction_text(v) for v in row] for row in exact]},
    }


def same_subspace(p: SubspacePoint, q: SubspacePoint, tol: float = 1e-8) -> bool:
    _check_pair(p, q)
    if p.mode == EXACT:
        stacked = [list(r) for r in exact_basis(p)] + [list(r) for r in exact_basis(q)]
        return rank(stacked) == p.m
    y = principal_angles(p, q)
    return all(v > 1 - tol for v in y)


def orthogonal_complement(p: SubspacePoint) -> SubspacePoint:
    """The (n - m)-dimensional orthogonal complement (exact mode only)."""
    if p.mode != EXACT:
        raise ValueError("complement helper is exact-mode only")
    conj_rows = [[v.conjugate() for v in row] for row in exact_basis(p)]
    kernel = null_space(conj_rows, zero=CX_ZERO, one=CX_ONE)
    return exact_complex_point(kernel)


def is_antipodal_pair(a: SubspacePoint, b: SubspacePoint, tol: float = 1e-8) -> bool:
    """True when every principal angle of the pair lies in {0, 1}."""
    return antipodal_angles(principal_angles(a, b), a.mode, tol)


def _row_inner(u, v) -> ExactComplex:
    total = CX_ZERO
    for x, y in zip(u, v):
        total = total + x * y.conjugate()
    return total


def symmetry_image(a: SubspacePoint, b: SubspacePoint) -> SubspacePoint:
    """Image of b under the geodesic symmetry at a (reflection 2P_a - I)."""
    _check_pair(a, b)
    if a.mode == FLOAT:
        qa = a.frame
        cols = b.basis.T
        reflected = 2.0 * (qa @ (qa.conj().T @ cols)) - cols
        return SubspacePoint(reflected.T, mode=FLOAT)
    # P_a = A^H G^-1 A for the integer rows A of a
    a_rows = [[ExactComplex(*v) for v in row] for row in a.rows]
    inv = [[ExactComplex(*v) for v in row] for row in a.inv_num]
    b_basis = exact_basis(b)
    cross = [[_row_inner(rb, ra) for ra in a_rows] for rb in b_basis]
    proj = mat_mul(mat_mul(cross, inv), a_rows)
    twice = rational(2, a.inv_den)
    rows = [[twice * p - v for p, v in zip(pr, br)] for pr, br in zip(proj, b_basis)]
    return exact_complex_point(rows)


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


def _jacobi_trudi_index(sigma) -> list:
    """h indices of the Jacobi-Trudi matrix of sigma; -1 reads an appended zero."""
    ell = sigma.length
    return [[max(sigma.parts[i] - i + j, -1) for j in range(ell)] for i in range(ell)]


def prepare_point(y):
    """Coerce an evaluation point, returning (values, exact_flag)."""
    vals = tuple(y)
    if all(is_exact_real(v) for v in vals):
        return tuple(as_rational(v) for v in vals), True
    return tuple(float(v) for v in vals), False


def elementary_all(y, upto: int) -> list:
    """e_0 .. e_upto, read off the expanded product prod_j (1 + y_j t)."""
    vals, exact = prepare_point(y)
    return _elementary_terms(vals, upto, rational(1) if exact else 1.0)


def complete_all(y, upto: int) -> list:
    """h_0 .. h_upto via the recurrence h_k = sum_j (-1)^{j-1} e_j h_{k-j}."""
    vals, exact = prepare_point(y)
    m = len(vals)
    one = rational(1) if exact else 1.0
    return _complete_terms(_elementary_terms(vals, min(upto, m), one), m, upto, one)


def elementary_eval(i: int, y):
    """Elementary symmetric polynomial e_i(y); zero when i exceeds len(y)."""
    if i < 0:
        raise ValueError(f"negative index {i}")
    vals, exact = prepare_point(y)
    if i > len(vals):
        return rational(0) if exact else 0.0
    return elementary_all(vals, i)[i]


def complete_eval(i: int, y):
    """Complete homogeneous symmetric polynomial h_i(y)."""
    if i < 0:
        raise ValueError(f"negative index {i}")
    return complete_all(y, i)[i]


def schur_jacobi_trudi(sigma, e):
    """s_sigma from e = (e_0, e_1, .., e_m) by det(h_(sigma_i - i + j)).

    The h_k come from the e_k by h_k = sum_j (-1)^(j-1) e_j h_(k-j);
    h_k with k < 0 is read from an appended zero at index -1.
    """
    m = len(e) - 1
    if sigma.m != m:
        raise ValueError(f"partition ambient {sigma.m} vs {m} variables")
    one = e[0]
    h = _complete_terms(list(e), m, _top_index([sigma]), one) + [one * 0]
    return det([[h[k] for k in row] for row in _jacobi_trudi_index(sigma)])


def scaled_rows(points, upto: int) -> list:
    """Exact points y = a/d as one row (d, e_1(a) .. e_upto(a)) each.

    d is the one a ``ScaledPoints`` gives, else the lcm of y's denominators.
    """
    if not isinstance(points, ScaledPoints):
        points = [scaled_point(y) for y in points]
    rows = []
    for a, d in points:
        e = _elementary_terms(a, min(upto, len(a)), 1)
        e[0] = d
        rows.append(e)
    return rows


def row_values(poly, rows) -> list:
    """An e-polynomial at each row, one point at a time, row[k] standing for e_k."""
    return [
        sum(c * math.prod(v[k] ** x for k, x in enumerate(mono) if x) for mono, c in poly)
        for v in rows
    ]


def expansion_values(expansion, points) -> list:
    """A SchurExpansion at exact points, term by term: c_sigma s_sigma(a) / (norm d^|sigma|)."""
    rows = scaled_rows(points, _top_index(list(expansion.coeffs)))
    values = [rational(0)] * len(rows)
    for sigma, c in expansion.coeffs.items():
        nums = row_values(schur_e_polynomial(sigma), rows)
        scale = c / schur_norm(sigma)
        values = [v + scale * rational(s, row[0] ** sigma.weight) for v, s, row in zip(values, nums, rows)]
    return values


def expansion_at_ones(expansion):
    """Sum of a SchurExpansion's coefficients, over their one common denominator."""
    coeffs = expansion.coeffs.values()
    common = math.lcm(*(c.denominator for c in coeffs))
    return rational(sum(c.numerator * (common // c.denominator) for c in coeffs), common)


def scaled_expansion(expansion, factor):
    """A SchurExpansion times an exact rational."""
    factor = as_rational(factor)
    return SchurExpansion(expansion.m, [(s, c * factor) for s, c in expansion.coeffs.items()])


def invariant_columns(invariants) -> tuple:
    """Points given by their e-vectors (e_1, .., e_m) as e-columns, and whether they are exact.

    Exact values give (d, d e_1, .., d^m e_m) as object arrays of ints, d
    the lcm of the e_k's denominators: a point with these e_k is y = a/d
    with e_k(a) = d^k e_k.  A float array, or any float entry, gives
    float columns (1, e_1, .., e_m).  Entry i of every column belongs to
    point i.
    """
    if not (isinstance(invariants, np.ndarray) and invariants.dtype.kind == "f"):
        invariants = [tuple(e) for e in invariants]
        if all(is_exact_real(v) for e in invariants for v in e):
            widths = {len(e) for e in invariants}
            if len(widths) != 1:
                raise ValueError("invariants must be an (N, m) array")
            scaled = np.empty((len(invariants), widths.pop() + 1), dtype=object)
            for row, e in zip(scaled, invariants):
                d = math.lcm(*(v.denominator for v in e))
                row[:] = [d] + [v.numerator * (d // v.denominator) * d ** (k - 1) for k, v in enumerate(e, 1)]
            return list(scaled.T), True
    e = np.asarray(invariants, dtype=float)
    if e.ndim != 2:
        raise ValueError("invariants must be an (N, m) array")
    return [np.ones(len(e)), *e.T], False


def normalized_schur_at_invariants(sigmas, invariants) -> np.ndarray:
    """X*_sigma at points given by their invariants (e_1, .., e_m), one output row per sigma.

    Tuples of exact values give an object array of ``Fraction``; a float
    (N, m) array, or any float entry, gives a float array.
    """
    stack, exact = invariant_columns(invariants)
    out = np.empty((len(sigmas), len(stack[0])), dtype=object if exact else float)
    for r, sigma in enumerate(sigmas):
        if sigma.m != len(stack) - 1:
            raise ValueError(f"partition ambient {sigma.m} vs point length {len(stack) - 1}")
        if exact:
            t, q = exact_schur_sum([(sigma, 1 / schur_norm(sigma))], stack)
            out[r] = [rational(x, q) for x in t]
        else:
            out[r] = _evaluate(schur_e_polynomial(sigma), stack)
            out[r] /= float(schur_norm(sigma))
    return out


def schur_moments(config, sigmas) -> dict:
    """M_sigma = sum over ordered pairs of X*_sigma(y(a, b)), for each sigma.

    Exact invariants are distinct classes with their counts, float ones
    single pairs of weight 1 or 2.  Exact moments take one
    ``exact_schur_sum`` per sigma on the classes' integer columns.
    """
    invariants, weights = config.invariant_weights()
    if config.mode != EXACT:
        values = normalized_schur_at_invariants(sigmas, invariants)
        return dict(zip(sigmas, (values * weights).sum(axis=1).tolist()))
    stack, _ = invariant_columns(invariants)
    counts = weights.tolist()
    moments = {}
    for sigma in sigmas:
        t, q = exact_schur_sum([(sigma, 1 / schur_norm(sigma))], stack)
        moments[sigma] = rational(sum(x * c for x, c in zip(t, counts)), q)
    return moments


def moment_defects(config, family) -> list:
    """Kernel sums for every shape of the family, from one set of Schur moments.

    Each kernel is read as its integer numerators c_sigma over its one
    denominator.  Exact defects are sum c_sigma M_sigma over the kernel
    denominator times the moments' common one; float defects sum
    (c_sigma / den) M_sigma in down-set order from 0.
    """
    kernels = [zonal_kernel(mu, config.n) for mu in family]
    sigmas = sorted({s for k in kernels for s in k.terms}, key=Partition.sort_key)
    moments = schur_moments(config, sigmas)
    if config.mode != EXACT:
        defects = []
        for k in kernels:
            defect, den = 0.0, k.den
            for s, c in k.terms.items():
                defect += c / den * moments[s]
            defects.append(defect)
        return defects
    common = math.lcm(*(v.denominator for v in moments.values()))
    scaled = {s: v.numerator * (common // v.denominator) for s, v in moments.items()}
    return [rational(sum(c * scaled[s] for s, c in k.terms.items()), k.den * common) for k in kernels]


def horner_tables(invariants: list, m: int, alpha: int, top: int) -> list:
    """(d, table) of each exact point y = a/d given by (e_1, .., e_m), d the lcm of their denominators.

    Column j (0-based) holds at row k the integer d^(k - m + 1 + j) G[k][j]
    = sum_r (-1)^(k - r) c_(k, r) H_(r - m + 1 + j) d^(k - r), H_s = h_s(a)
    from the signed (-1)^(k - 1) e_k(a) = (-1)^(k - 1) d^k e_k, by Horner
    in -d, one :func:`_jacobi_row` at a time.
    """
    points = []
    for e in invariants:
        d = math.lcm(*(v.denominator for v in e))
        signed = [v.numerator * (d // v.denominator) * (-d) ** (k - 1) for k, v in enumerate(e, 1)]
        h = [1]
        for _ in range(top):
            h.append(sum(map(operator.mul, signed, reversed(h))))
        points.append((d, h, [[0] * (top + 1) for _ in range(m)]))
    for k in range(top + 1):
        row = _jacobi_row(k, alpha, k + 1)
        for d, h, table in points:
            for j, column in enumerate(table):
                acc = 0
                for c, v in zip(row[m - 1 - j :], h):
                    acc = acc * -d + c * v
                column[k] = acc
    return [(d, table) for d, _, table in points]
