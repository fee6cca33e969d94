"""Seeded input generators: configuration JSON for ``verify-design --config``.

Two generators, both pure functions of their seed:

* :func:`disguise` maps an exact configuration through an exact rational
  unitary (Pythagorean-triple Givens rotations times Gaussian phases such
  as (3+4i)/5) and then recombines each point's rows with a seeded
  invertible Gaussian-integer matrix.  Unitary maps preserve principal
  angles and row recombination preserves the subspace, so every defect of
  the copy equals the defect of the original, while the entries become
  dense Gaussian rationals with non-orthonormal rows.
* :func:`random_float_config` draws complex Gaussian bases, so every pair
  of points has its own irrational angle vector.

The generators do not import the package under test; the program sees
only the files they write.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

# A Gaussian rational is a pair (re, im) of Fractions.
ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))

# The phases (a + bi)/5 with a^2 + b^2 = 25 and the (3, 4, 5) Givens angles:
# one denominator throughout keeps the bit size of a copy independent of
# the seed, so the work per copy does too.
_TRIPLE = (3, 4, 5)
_PHASES = [
    (Fraction(a, 5), Fraction(b, 5))
    for a, b in ((3, 4), (4, 3), (-3, 4), (-4, 3), (3, -4), (4, -3), (-3, -4), (-4, -3))
]


def cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def cx_to_str(x) -> str:
    re, im = x
    if not im:
        return str(re)
    if im < 0:
        return f"{re}-{-im}*i"
    return f"{re}+{im}*i"


def coordinate_rows(m: int, n: int) -> list:
    """Bases of all coordinate m-subspaces of C^n, lexicographic subset order."""
    out = []
    for idx in combinations(range(n), m):
        out.append([[ONE if k == i else ZERO for k in range(n)] for i in idx])
    return out


def six_point_rows() -> list:
    """The six planes of C^4 that meet the design bound without being antipodal."""
    i_unit = (Fraction(0), Fraction(1))
    neg_i = (Fraction(0), Fraction(-1))

    def coord(a, b):
        return [[ONE if k == a else ZERO for k in range(4)], [ONE if k == b else ZERO for k in range(4)]]

    e3 = [ZERO, ZERO, ONE, ZERO]
    return [
        coord(0, 1),
        coord(2, 3),
        coord(0, 3),
        coord(1, 3),
        [[ONE, i_unit, ZERO, ZERO], e3],
        [[ONE, neg_i, ZERO, ZERO], e3],
    ]


def random_unitary(n: int, rng: random.Random):
    """Seeded exact unitary as (rotations, phases).

    Two chains of (3, 4, 5) Givens rotations over shuffled coordinate
    orders make every output coordinate depend on every input one; a
    diagonal of Gaussian phases follows.  Entries of the image carry
    denominators up to 5^(2n - 1), about 25 bits at n = 6.
    """
    a, b, h = _TRIPLE
    rotations = []
    for _ in range(2):
        order = list(range(n))
        rng.shuffle(order)
        for i, j in zip(order, order[1:]):
            c, s = Fraction(a, h), Fraction(b, h)
            if rng.random() < 0.5:
                c, s = s, c
            if rng.random() < 0.5:
                s = -s
            rotations.append((i, j, c, s))
    phases = [rng.choice(_PHASES) for _ in range(n)]
    return rotations, phases


def apply_unitary(rows: list, unitary) -> list:
    """Image of each row vector under the unitary, as new rows."""
    rotations, phases = unitary
    out = [list(r) for r in rows]
    for i, j, c, s in rotations:
        for row in out:
            xi, xj = row[i], row[j]
            row[i] = (c * xi[0] - s * xj[0], c * xi[1] - s * xj[1])
            row[j] = (s * xi[0] + c * xj[0], s * xi[1] + c * xj[1])
    return [[cmul(p, x) for p, x in zip(phases, row)] for row in out]


def _invertible_gaussian_int(m: int, rng: random.Random) -> list:
    """Seeded m x m Gaussian-integer matrix with nonzero determinant."""
    while True:
        mat = [
            [(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))) for _ in range(m)]
            for _ in range(m)
        ]
        if _det_nonzero(mat):
            return mat


def _det_nonzero(mat) -> bool:
    a = [list(r) for r in mat]
    n = len(a)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != ZERO), None)
        if piv is None:
            return False
        a[col], a[piv] = a[piv], a[col]
        pr, pi = a[col][col]
        norm = pr * pr + pi * pi
        inv = (pr / norm, -pi / norm)
        for r in range(col + 1, n):
            f = cmul(a[r][col], inv)
            a[r] = [cadd(x, cmul((-f[0], -f[1]), y)) for x, y in zip(a[r], a[col])]
    return True


def disguise(points: list, seed: int) -> list:
    """Exact unitary image of every point, each with its rows recombined."""
    rng = random.Random(seed)
    n = len(points[0][0])
    m = len(points[0])
    unitary = random_unitary(n, rng)
    out = []
    for basis in points:
        rows = apply_unitary(basis, unitary)
        mix = _invertible_gaussian_int(m, rng)
        out.append(
            [
                [
                    _sum(cmul(mix[i][t], rows[t][k]) for t in range(m))
                    for k in range(n)
                ]
                for i in range(m)
            ]
        )
    return out


def _sum(values):
    total = ZERO
    for v in values:
        total = cadd(total, v)
    return total


def exact_config(points: list, label: str) -> dict:
    m, n = len(points[0]), len(points[0][0])
    return {
        "m": m,
        "n": n,
        "mode": "exact",
        "label": label,
        "points": [{"rows": [[cx_to_str(v) for v in row] for row in p]} for p in points],
    }


def float_copy(config: dict) -> dict:
    """The same configuration in float mode, entries rounded to doubles."""
    points = []
    for p in config["points"]:
        rows = []
        for row in p["rows"]:
            rows.append([[float(x[0]), float(x[1])] for x in map(_parse_cx, row)])
        points.append({"rows": rows})
    return dict(config, mode="float", label=config["label"] + "-float", points=points)


def _parse_cx(text: str):
    text = text.strip()
    if not text.endswith("*i"):
        return (Fraction(text), Fraction(0))
    body = text[:-2]
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "+-/":
            im = Fraction(body[k + 1 :])
            return (Fraction(body[:k]), -im if body[k] == "-" else im)
    return (Fraction(0), Fraction(body))


def random_float_config(m: int, n: int, size: int, seed: int) -> dict:
    """Float configuration of complex Gaussian bases drawn from ``seed``."""
    rng = random.Random(seed)
    points = [
        {"rows": [[[rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(n)] for _ in range(m)]}
        for _ in range(size)
    ]
    return {"m": m, "n": n, "mode": "float", "label": f"random({m},{n})x{size}", "points": points}
