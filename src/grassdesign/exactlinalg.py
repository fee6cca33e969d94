"""Small exact linear-algebra kernels over generic field scalars.

Everything here is written against the minimal scalar protocol
(+, -, *, /, truthiness as zero test) so the same code runs over backend
rationals, Gaussian rationals and, where sensible, machine floats.
Matrices are lists of lists; sizes in this package stay in the single
digits, so clarity wins over asymptotics.
"""

from __future__ import annotations

import math

from .scalars import as_rational, rational


class SingularMatrixError(ArithmeticError):
    """Exact linear system has no unique solution."""


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

    ``poly`` has backend-rational coefficients, ascending in degree.
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
        scale = math.lcm(*(int(c.denominator) for c in sf))
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
