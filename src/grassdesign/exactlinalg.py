"""Small exact linear-algebra kernels.

Two kinds of scalar are served:

* generic scalars through the minimal protocol (+, -, *, /, truthiness
  as zero test), so the same code runs over ``Fraction``, Gaussian
  rationals and, where sensible, machine floats: determinants, matrix
  products, polynomial arithmetic and the rational-root search;
* Gaussian integers stored as ``(re, im)`` pairs of Python ints, the
  scalars of the exact pair geometry: matrix products, the
  characteristic polynomial by Berkowitz's division-free recurrence, and
  the determinant and adjugate it yields by Cayley-Hamilton.  No step
  divides, so every intermediate is an integer and no fraction is ever
  formed or reduced.

Matrices are lists of lists; sizes in this package stay in the single
digits, so clarity wins over asymptotics.
"""

from __future__ import annotations

import math

from .scalars import as_rational, rational


class RootSearchLimitError(ArithmeticError):
    """Rational-root candidates exceed the search budget; use float mode."""


# Budget of the rational-root search: trial division runs up to the square
# root of each end coefficient, and every candidate costs one deflation.
ROOT_SEARCH_BITS = 40
ROOT_SEARCH_CANDIDATES = 4096


def det(rows):
    """Determinant by division-free minor expansion (memoized on column sets).

    Valid for any commutative-ring scalars; cost O(n * 2^n), fine for the
    tiny matrices used here.
    """
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    cache = {}

    def minor(mask):
        if not mask:
            return 1
        got = cache.get(mask)
        if got is not None:
            return got
        r = n - bin(mask).count("1")
        total = 0
        sign = 1
        for j in range(n):
            bit = 1 << j
            if not mask & bit:
                continue
            a = rows[r][j]
            if a:
                total = total + sign * a * minor(mask & ~bit)
            sign = -sign
        cache[mask] = total
        return total

    return minor((1 << n) - 1)


def mat_mul(a, b):
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


def poly_normalize(poly):
    k = len(poly)
    while k > 1 and not poly[k - 1]:
        k -= 1
    return list(poly[:k])


def poly_degree(poly):
    poly = poly_normalize(poly)
    return len(poly) - 1 if any(poly) else -1


def poly_derivative(poly):
    return [k * c for k, c in enumerate(poly)][1:] or [0]


def poly_divmod(num, den):
    num = [as_rational(c) for c in poly_normalize(num)]
    den = [as_rational(c) for c in poly_normalize(den)]
    if not any(den):
        raise ZeroDivisionError("polynomial division by zero")
    q = [rational(0)] * max(len(num) - len(den) + 1, 1)
    r = list(num)
    dd = len(den) - 1
    lead = den[-1]
    while len(r) - 1 >= dd and any(r):
        shift = len(r) - 1 - dd
        f = r[-1] / lead
        q[shift] = f
        for i, c in enumerate(den):
            r[shift + i] = r[shift + i] - f * c
        r = poly_normalize(r)
        if len(r) == 1 and not r[0]:
            break
    return poly_normalize(q), poly_normalize(r)


def poly_gcd(a, b):
    a = poly_normalize(a)
    b = poly_normalize(b)
    while any(b):
        _, r = poly_divmod(a, b)
        a, b = b, r
    if not any(a):
        return [rational(1)]
    lead = as_rational(a[-1])
    return [as_rational(c) / lead for c in a]


def square_free_part(poly):
    return poly_divmod(poly, poly_gcd(poly, poly_derivative(poly)))[0]


def _divisors(n: int):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots(poly):
    """All rational roots with multiplicity, plus the unfactored degree.

    ``poly`` has ``Fraction`` coefficients, ascending in degree.
    Candidates come from the square-free part (rational root theorem on
    its integer form); multiplicities come from repeated exact deflation.
    End coefficients above ``ROOT_SEARCH_BITS`` bits, or more than
    ``ROOT_SEARCH_CANDIDATES`` candidates, raise :class:`RootSearchLimitError`.
    Returns ``(roots, leftover_degree)`` with roots sorted descending.
    """
    poly = [as_rational(c) for c in poly_normalize(poly)]
    degree = poly_degree(poly)
    if degree <= 0:
        return [], 0

    candidates = set()
    sf = square_free_part(poly)
    # roots at zero show up as a vanishing constant term
    if not sf[0]:
        candidates.add(rational(0))
        while not sf[0]:
            sf = sf[1:]
    if len(sf) > 1:
        scale = math.lcm(*(c.denominator for c in sf))
        ends = [int(sf[0] * scale), int(sf[-1] * scale)]
        if max(abs(v).bit_length() for v in ends) > ROOT_SEARCH_BITS:
            raise RootSearchLimitError(
                f"rational-root search needs end coefficients of at most "
                f"{ROOT_SEARCH_BITS} bits; use float mode for this configuration"
            )
        nums, dens = _divisors(ends[0]), _divisors(ends[1])
        if 2 * len(nums) * len(dens) > ROOT_SEARCH_CANDIDATES:
            raise RootSearchLimitError(
                f"rational-root search exceeds {ROOT_SEARCH_CANDIDATES} candidates; "
                "use float mode for this configuration"
            )
        for p in nums:
            for q in dens:
                candidates.add(rational(p, q))
                candidates.add(rational(-p, q))

    roots = []
    current = poly
    for cand in sorted(candidates, reverse=True):
        mult = 0
        while poly_degree(current) >= 1:
            q, r = poly_divmod(current, [-cand, rational(1)])
            if any(r):
                break
            current = q
            mult += 1
        if mult:
            roots.append((cand, mult))
    return roots, poly_degree(current)
