"""Print one ``sha256 exit argv`` line per command of a fixed list.

Usage (from the repository root):

    PYTHONPATH=src python tests/result_sweep.py > sweep.txt

The hash is the SHA-256 of the canonical JSON of the command's
``result`` payload (sorted keys, no spaces), or of its empty stdout.
The list covers ``antipodal --verify`` with E+F and T2..T4 on the
coordinate sets G(m, n), 2 <= m <= 4, 2m <= n <= 8; ``appendix-b``; and
``verify-design`` and ``angles`` on seeded disguised configurations and
their float copies, written to a temporary directory and named in the
output by file name only.  Two checkouts whose sweeps ``diff`` equal give
byte-identical results on the whole list.  The file is not collected by
pytest.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from seeded_configs import disguised_points, exact_document, float_document  # noqa: E402

from grassdesign.cli import main  # noqa: E402

COORDINATE_SETS = [(m, n) for m in range(2, 5) for n in range(2 * m, 9)]
FAMILIES = ["E+F", "T2", "T3", "T4"]
# (m, n, seed) of the disguised configurations
DISGUISED = [(2, 4, 1), (2, 6, 2), (3, 6, 3)]


def commands(workdir: Path) -> list:
    out = [
        ["antipodal", "--m", str(m), "--n", str(n), "--verify", family]
        for m, n in COORDINATE_SETS
        for family in FAMILIES
    ]
    out += [["appendix-b"], ["appendix-b", "--verify", "E+F"]]
    for m, n, seed in DISGUISED:
        points = disguised_points(m, n, seed)
        for name, doc in (
            (f"disguised-{m}-{n}.json", exact_document(points, f"disguised-{m}-{n}")),
            (f"disguised-{m}-{n}-float.json", float_document(points, f"disguised-{m}-{n}-float")),
        ):
            path = workdir / name
            path.write_text(json.dumps(doc))
            out += [["verify-design", "--config", str(path), "--set", family] for family in ("E+F", "T2")]
            out.append(["angles", "--config", str(path)])
    return out


def run(argv: list) -> tuple:
    """Exit code and result hash of one command, run in this process."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    text = stdout.getvalue()
    if text:
        text = json.dumps(json.loads(text)["result"], sort_keys=True, separators=(",", ":"))
    return code, hashlib.sha256(text.encode()).hexdigest()


def main_sweep() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for argv in commands(Path(tmp)):
            code, digest = run(argv)
            shown = [Path(a).name if a.startswith(tmp) else a for a in argv]
            print(digest, code, " ".join(shown), flush=True)


if __name__ == "__main__":
    main_sweep()
