"""Seeded configuration documents for the tests and the result sweep.

:func:`disguised_points` maps the coordinate m-subspaces of C^n through
a seeded exact unitary, chains of (3, 4, 5) Givens rotations over
shuffled coordinate orders followed by Gaussian phases such as
(3 + 4i)/5, and recombines each point's rows by a seeded unimodular
Gaussian-integer matrix.  Angles and defects are those of the coordinate
set; the entries are dense Gaussian rationals.  Values are (re, im)
pairs of ``Fraction`` and nothing here calls the package, so a document
is the same bytes whatever the package does.
"""

import random
from fractions import Fraction
from itertools import combinations

_PHASES = [(3, 4), (4, 3), (-3, 4), (-4, 3), (3, -4), (4, -3), (-3, -4), (-4, -3)]


def _mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _dot(u, v):
    re = sum(_mul(x, y)[0] for x, y in zip(u, v))
    im = sum(_mul(x, y)[1] for x, y in zip(u, v))
    return (re, im)


def _unitary(n: int, rng: random.Random) -> list:
    """Rows of a seeded exact n x n unitary, entries (re, im) Fraction pairs."""
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for _ in range(2):
        order = list(range(n))
        rng.shuffle(order)
        for i, j in zip(order, order[1:]):
            c, s = Fraction(3, 5), Fraction(4, 5)
            if rng.random() < 0.5:
                c, s = s, c
            if rng.random() < 0.5:
                s = -s
            for row in rows:
                xi, xj = row[i], row[j]
                row[i] = (c * xi[0] - s * xj[0], c * xi[1] - s * xj[1])
                row[j] = (s * xi[0] + c * xj[0], s * xi[1] + c * xj[1])
    phases = [(Fraction(a, 5), Fraction(b, 5)) for a, b in (rng.choice(_PHASES) for _ in range(n))]
    return [[_mul(p, x) for p, x in zip(phases, row)] for row in rows]


def _unimodular(m: int, rng: random.Random) -> list:
    """Seeded m x m Gaussian-integer matrix L U, L and U unit triangular, so det 1."""
    def entry():
        return (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))

    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    lower = [[entry() if j < i else one if j == i else zero for j in range(m)] for i in range(m)]
    upper = [[entry() if j > i else one if j == i else zero for j in range(m)] for i in range(m)]
    return [[_dot(row, col) for col in zip(*upper)] for row in lower]


def disguised_points(m: int, n: int, seed: int) -> list:
    """Bases of the coordinate m-subspaces of C^n, disguised from ``seed``."""
    rng = random.Random(seed)
    unitary = _unitary(n, rng)
    points = []
    for idx in combinations(range(n), m):
        rows = [unitary[i] for i in idx]
        mix = _unimodular(m, rng)
        points.append([[_dot(row, col) for col in zip(*rows)] for row in mix])
    return points


def _text(x) -> str:
    re, im = x
    if not im:
        return str(re)
    return f"{re}-{-im}*i" if im < 0 else f"{re}+{im}*i"


def exact_document(points: list, label: str) -> dict:
    return {
        "m": len(points[0]),
        "n": len(points[0][0]),
        "mode": "exact",
        "label": label,
        "points": [{"rows": [[_text(v) for v in row] for row in p]} for p in points],
    }


def float_document(points: list, label: str) -> dict:
    """The same points in float mode, each part rounded to the nearest double."""
    doc = exact_document(points, label)
    doc["mode"] = "float"
    doc["points"] = [{"rows": [[[float(v[0]), float(v[1])] for v in row] for row in p]} for p in points]
    return doc
