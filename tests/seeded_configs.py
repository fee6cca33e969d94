"""Seeded configuration documents for the tests and the result sweep.

:func:`disguise` maps points of C^n through a seeded exact unitary,
chains of (3, 4, 5) Givens rotations over shuffled coordinate orders
followed by Gaussian phases such as (3 + 4i)/5, and recombines each
point's rows by a seeded unimodular Gaussian-integer matrix.  Angles and
defects are those of the original points; the entries are dense
Gaussian rationals.  :func:`recombine` takes only the second step, so
coordinate subspaces keep their span but lose their unit rows, and
:func:`scaled_coordinate_points` keeps one nonzero entry per row but
not the value 1 or the coordinate order.
:func:`disguised_points` disguises the coordinate m-subspaces of C^n,
:func:`block_points` spans unions of coordinate blocks,
:func:`dense_point` draws a seeded point with small Gaussian-integer
entries, and :func:`complement_closed_points` takes each V and V^perp
from the rows of one seeded unitary.  Values are
(re, im) pairs of ``Fraction`` and nothing here calls the package, so a
document is the same bytes whatever the package does.
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


def _recombined(rows: list, rng: random.Random) -> list:
    """The rows recombined by a seeded unimodular Gaussian-integer matrix: another basis of their span."""
    mix = _unimodular(len(rows), rng)
    return [[_dot(row, col) for col in zip(*rows)] for row in mix]


def disguise(points: list, seed: int) -> list:
    """The points, each a list of rows of (re, im) pairs, disguised from ``seed``."""
    rng = random.Random(seed)
    unitary = _unitary(len(points[0][0]), rng)
    return [_recombined([[_dot(row, col) for col in zip(*unitary)] for row in rows], rng) for rows in points]


def recombine(points: list, seed: int) -> list:
    """The same subspaces, each point's rows recombined from ``seed``: no unitary, so coordinate subspaces stay coordinate."""
    rng = random.Random(seed)
    return [_recombined(rows, rng) for rows in points]


def coordinate_points(m: int, n: int) -> list:
    """Bases of the coordinate m-subspaces of C^n, in lexicographic subset order."""
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    return [[[one if j == i else zero for j in range(n)] for i in idx] for idx in combinations(range(n), m)]


# the nonzero entries of scaled_coordinate_points: 3 + 4i, -i and 2
SCALES = ((Fraction(3), Fraction(4)), (Fraction(0), Fraction(-1)), (Fraction(2), Fraction(0)))


def scaled_coordinate_points(m: int, n: int) -> list:
    """The coordinate m-subspaces of C^n in lexicographic order, rows c e_j with j descending and c cycling through SCALES."""
    zero = (Fraction(0), Fraction(0))
    return [
        [[SCALES[(a + r) % len(SCALES)] if j == i else zero for j in range(n)] for r, i in enumerate(reversed(idx))]
        for a, idx in enumerate(combinations(range(n), m))
    ]


def block_points(blocks: list, subsets: list) -> list:
    """Bases of the spans of unions of coordinate blocks of C^n, one point per subset of block indices.

    Blocks that no point separates are atoms of rank above 1.
    """
    n = sum(len(b) for b in blocks)
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    return [[[one if j == i else zero for j in range(n)] for k in subset for i in blocks[k]] for subset in subsets]


def disguised_points(m: int, n: int, seed: int) -> list:
    """Bases of the coordinate m-subspaces of C^n, disguised from ``seed``."""
    return disguise(coordinate_points(m, n), seed)


def six_points() -> list:
    """The six planes of C^4 that meet the design bound without being antipodal."""
    coordinate = coordinate_points(2, 4)
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    e3 = [zero, zero, one, zero]
    tilted = [[[one, (Fraction(0), Fraction(s)), zero, zero], e3] for s in (1, -1)]
    return [coordinate[0], coordinate[5], coordinate[2], coordinate[4]] + tilted


def dense_point(m: int, n: int, seed: int) -> list:
    """A seeded m x n basis with Gaussian-integer entries of parts in -3..3."""
    rng = random.Random(seed)
    return [[(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))) for _ in range(n)] for _ in range(m)]


def complement_closed_points(m: int, seeds: list) -> list:
    """V and V^perp in G(m, 2m) for each seed: the first and last m rows of one seeded unitary."""
    points = []
    for seed in seeds:
        unitary = _unitary(2 * m, random.Random(seed))
        points += [unitary[:m], unitary[m:]]
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
