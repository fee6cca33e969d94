"""Print one ``result-sha256 stdout-sha256 exit argv`` line per command of a fixed list.

Usage (from the repository root):

    PYTHONPATH=src python tests/result_sweep.py > sweep.txt

The 136 lines are pinned in ``tests/result_sweep.txt``, which
``tests/test_result_sweep.py`` compares with a run in process.

The first hash is the SHA-256 of the canonical JSON of the command's
``result`` payload (sorted keys, no spaces), of its whole stdout for
``--emit csv``, or of its empty stdout.
The second is the SHA-256 of the whole stdout as written, with the
value of ``duration_s`` and the temporary directory masked, so that the
emitted bytes are covered too.
The list covers every subcommand: ``antipodal --verify`` with E+F and
T2..T4 on the coordinate sets G(m, n), 2 <= m <= 4, 2m <= n <= 8, and
T5 on G(3, 6); ``zonal`` on a few shapes at m = 2, 3, 4 and on the
row (600) at m = 1, whose down-set has 601 shapes; ``dims``, once with
``--max-weight`` at m = 5; ``bound`` and
seeded ``check-nonneg`` for the certificates, with a depth-24 grid and
2,000 samples at m = 4 and a depth-14 grid at m = 6, and certificate
``one``, which reads e_1 alone, at m = 4 and m = 6; ``appendix-b``, once
with ``--verify T12``; ``angles`` on coordinate sets; and
``verify-design`` and ``angles`` on seeded disguised configurations and their float copies, with ``verify-design``
on two disguised G(4, 8), the first one's pair batch running on 19
split primes.  Batches that mix antipodal and generic pairs are
``verify-design`` and ``angles`` on G(3, 6) with one seeded dense point,
exact and disguised, also with T8 (many shapes at 24 pair classes whose
denominators reach 17 bits), on a disguised six-point set and on a
complement-closed set {V_i, V_i^perp} in G(3, 6); the same commands run
on the six spans of two of the blocks {e_2i, e_2i+1} of C^8, whose atoms
have rank 2, exact and disguised.  ``antipodal --verify E+F`` at
(5, 10), (6, 12) and (7, 14) and ``zonal`` on (3, 3, 2) at m = 64
follow, then ``--emit csv``: ``dims``, ``antipodal`` and
``appendix-b`` with ``--verify E+F``, and ``angles`` and
``verify-design`` on the disguised six-point set.  ``zonal`` ends the
list on (1) at m = 2 and 3 and on (3) and (3, 2, 1, 1) at m = 4,
kernels whose integer total is negative and whose coefficients are not
all integers, followed by the whole T-sets ``appendix-b --verify T40``
and ``antipodal --verify T8`` at (4, 8), and the deep recurrences of
``antipodal --verify T2000`` at (1, 2) and ``T1000`` at (1, 5).  Last
come ``antipodal --verify E+F`` at (8, 16), whose 12,870 points are
counted in many row chunks, and ``verify-design --set E+F`` and
``angles`` on G(3, 6) with rows scaled by 3 + 4i, -i and 2 in descending
coordinate order, both read off their rows, and ``angles`` on the first
disguised G(4, 8), whose 2,485 pairs are read off its atoms.
Files are written to a temporary directory and named in the
output by file name only.  Two checkouts whose sweeps ``diff`` equal
give byte-identical results on the whole list.  The file is not
collected by pytest; :func:`sweep` yields the lines.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from itertools import combinations
from pathlib import Path
from typing import Iterator

sys.path.insert(0, str(Path(__file__).resolve().parent))

from seeded_configs import (  # noqa: E402
    block_points,
    complement_closed_points,
    coordinate_points,
    dense_point,
    disguise,
    disguised_points,
    exact_document,
    float_document,
    scaled_coordinate_points,
    six_points,
)

from grassdesign.cli import main  # noqa: E402

COORDINATE_SETS = [(m, n) for m in range(2, 5) for n in range(2 * m, 9)]
FAMILIES = ["E+F", "T2", "T3", "T4"]
# (m, n, seed) of the disguised configurations
DISGUISED = [(2, 4, 1), (2, 6, 2), (3, 6, 3)]
# (m, n, mu) of the zonal kernels
ZONAL = [
    (1, 2, "600"),
    (2, 4, "2,1"),
    (2, 5, "3,3"),
    (3, 6, "1,1,1"),
    (3, 7, "3,2"),
    (3, 8, "3,2,1"),
    (4, 8, "2,1,1"),
    (4, 9, "2,2,1,1"),
]
# (m, n, mu) of kernels with fractional coefficients whose integer
# total, before the scaling to the dimension, is negative
SIGNED_ZONAL = [
    (2, 6, "1"),
    (3, 8, "1"),
    (4, 10, "3"),
    (4, 10, "3,2,1,1"),
]
SHAPES = [(2, 4), (3, 6), (3, 7), (4, 8)]
# the spans of two of the blocks {e_2i, e_2i+1} of C^8: atoms of rank 2
BLOCKS = block_points([[0, 1], [2, 3], [4, 5], [6, 7]], list(combinations(range(4), 2)))
CERTIFICATES = ["E", "F", "one"]


def write(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / name
    path.write_text(json.dumps(doc))
    return str(path)


def commands(workdir: Path) -> list:
    out = [
        ["antipodal", "--m", str(m), "--n", str(n), "--verify", family]
        for m, n in COORDINATE_SETS
        for family in FAMILIES
    ]
    out.append(["antipodal", "--m", "3", "--n", "6", "--verify", "T5"])
    out += [["zonal", "--mu", mu, "--m", str(m), "--n", str(n)] for m, n, mu in ZONAL]
    out += [["dims", "--m", str(m), "--n", str(n)] for m, n in SHAPES]
    out.append(["dims", "--m", "5", "--n", "11", "--max-weight", "8"])
    out += [["bound", "--certificate", c, "--m", str(m), "--n", str(n)] for m, n in SHAPES for c in CERTIFICATES]
    out += [
        ["--seed", "5", "check-nonneg", "--certificate", c, "--m", str(m), "--n", str(n), "--samples", "50"]
        for m, n in SHAPES[:2]
        for c in ("E", "F")
    ]
    # 22,475 points in six chunks, one of which mixes grid and sample denominators
    out.append(["check-nonneg", "--certificate", "F", "--m", "4", "--n", "9", "--depth", "24", "--samples", "2000"])
    out.append(["check-nonneg", "--certificate", "F", "--m", "6", "--n", "12", "--depth", "14"])
    # certificate one reads e_1 alone: columns truncated below m
    out.append(["--seed", "5", "check-nonneg", "--certificate", "one", "--m", "4", "--n", "8", "--samples", "50"])
    out.append(["check-nonneg", "--certificate", "one", "--m", "6", "--n", "12", "--depth", "14"])
    out += [["appendix-b"], ["appendix-b", "--verify", "E+F"], ["appendix-b", "--verify", "T12"]]
    for m, n in SHAPES[:2]:
        rows = [[[(1, 0) if j == i else (0, 0) for j in range(n)] for i in idx] for idx in combinations(range(n), m)]
        path = write(workdir, f"coordinate-{m}-{n}.json", exact_document(rows, f"coordinate-{m}-{n}"))
        out.append(["angles", "--config", path])
    for m, n, seed in DISGUISED:
        points = disguised_points(m, n, seed)
        for name, doc in (
            (f"disguised-{m}-{n}.json", exact_document(points, f"disguised-{m}-{n}")),
            (f"disguised-{m}-{n}-float.json", float_document(points, f"disguised-{m}-{n}-float")),
        ):
            path = write(workdir, name, doc)
            out += [["verify-design", "--config", path, "--set", family] for family in ("E+F", "T2")]
            out.append(["angles", "--config", path])
    doc = exact_document(disguised_points(4, 8, 5), "disguised-4-8")
    out.append(["verify-design", "--config", write(workdir, "disguised-4-8.json", doc), "--set", "E+F"])
    doc = exact_document(disguised_points(4, 8, 6), "disguised-4-8-b")
    out.append(["verify-design", "--config", write(workdir, "disguised-4-8-b.json", doc), "--set", "E+F"])
    mixed = coordinate_points(3, 6) + [dense_point(3, 6, 11)]
    for name, points in (
        ("mixed-3-6", mixed),
        ("disguised-mixed-3-6", disguise(mixed, 12)),
        ("disguised-six", disguise(six_points(), 13)),
        ("complement-closed-3-6", complement_closed_points(3, [14, 15, 16])),
        ("blocks-4-8", BLOCKS),
        ("disguised-blocks-4-8", disguise(BLOCKS, 17)),
    ):
        path = write(workdir, f"{name}.json", exact_document(points, name))
        out += [["verify-design", "--config", path, "--set", family] for family in ("E+F", "T3")]
        if name.endswith("mixed-3-6"):
            out.append(["verify-design", "--config", path, "--set", "T8"])
        out.append(["angles", "--config", path])
    out.append(["antipodal", "--m", "5", "--n", "10", "--verify", "E+F"])
    out.append(["antipodal", "--m", "6", "--n", "12", "--verify", "E+F"])
    out.append(["antipodal", "--m", "7", "--n", "14", "--verify", "E+F"])
    out.append(["zonal", "--mu", "3,3,2", "--m", "64", "--n", "128"])
    six = str(workdir / "disguised-six.json")
    out += [
        argv + ["--emit", "csv"]
        for argv in (
            ["dims", "--m", "3", "--n", "6"],
            ["angles", "--config", six],
            ["verify-design", "--config", six, "--set", "T3"],
            ["antipodal", "--m", "3", "--n", "6", "--verify", "E+F"],
            ["appendix-b", "--verify", "E+F"],
        )
    ]
    out += [["zonal", "--mu", mu, "--m", str(m), "--n", str(n)] for m, n, mu in SIGNED_ZONAL]
    out.append(["appendix-b", "--verify", "T40"])
    out.append(["antipodal", "--m", "4", "--n", "8", "--verify", "T8"])
    # deep Jacobi recurrences at alpha = 0 and alpha = 3
    out.append(["antipodal", "--m", "1", "--n", "2", "--verify", "T2000"])
    out.append(["antipodal", "--m", "1", "--n", "5", "--verify", "T1000"])
    # coordinate-aligned sets, counted from their rows' supports: G(8, 16)
    # over many row chunks, and G(3, 6) with rows scaled by 3 + 4i, -i, 2
    out.append(["antipodal", "--m", "8", "--n", "16", "--verify", "E+F"])
    path = write(workdir, "scaled-coordinate-3-6.json", exact_document(scaled_coordinate_points(3, 6), "scaled-coordinate-3-6"))
    out += [["verify-design", "--config", path, "--set", "E+F"], ["angles", "--config", path]]
    # the 2,485 pairs of a disguised G(4, 8), read off its atoms
    out.append(["angles", "--config", str(workdir / "disguised-4-8.json")])
    return out


DURATION = re.compile(r'"duration_s": [^,\n}]+')


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv: list, tmp: str) -> tuple:
    """Exit code, result hash and masked stdout hash of one command, run in this process."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    text = stdout.getvalue()
    result = text
    if text and "csv" not in argv:
        result = json.dumps(json.loads(text)["result"], sort_keys=True, separators=(",", ":"))
    masked = DURATION.sub('"duration_s": 0', text.replace(tmp, "TMP"))
    return code, sha256(result), sha256(masked)


def sweep() -> Iterator[str]:
    """One ``result-sha256 stdout-sha256 exit argv`` line per command, files named by file name only."""
    with tempfile.TemporaryDirectory() as tmp:
        for argv in commands(Path(tmp)):
            code, result, stdout = run(argv, tmp)
            shown = [Path(a).name if a.startswith(tmp) else a for a in argv]
            yield f"{result} {stdout} {code} {' '.join(shown)}"


def main_sweep() -> None:
    for line in sweep():
        print(line, flush=True)


if __name__ == "__main__":
    main_sweep()
