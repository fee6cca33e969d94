"""Record the reference result hashes the workload checks compare against.

Run from the repository root at the commit whose outputs are the
reference:  python3 perfbench/record_reference.py
It writes perfbench/reference.json.  Every input any seed can draw is
covered, so the checks never depend on the seed.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import grassdesign.cli as cli  # noqa: E402

import inputs  # noqa: E402
import workloads as w  # noqa: E402
from worker import parse_outcomes, run_jobs  # noqa: E402


def reference_jobs(workdir: Path) -> list:
    """(key, argv, transform) for every reference."""
    out = []
    for m, n in w.ANTIPODAL_SETS:
        out.append((f"antipodal:{m}:{n}:E+F", ["antipodal", "--m", str(m), "--n", str(n), "--verify", "E+F"]))
    out.append(("appendix-b:E+F", ["appendix-b", "--verify", "E+F"]))
    for m, cap in sorted(w.KERNEL_WEIGHT_CAPS.items()):
        for n in range(2 * m, 2 * m + 4):
            for parts in w.partitions_up_to(m, cap):
                arg = w.shape_arg(parts)
                out.append((f"zonal:{arg}:{n}", ["zonal", "--mu", arg, "--m", str(m), "--n", str(n)]))
    m = max(w.KERNEL_WEIGHT_CAPS)
    for n in range(2 * m, 2 * m + 4):
        out.append(
            (f"dims:{m}:{n}:{w.DIMS_WEIGHT}", ["dims", "--m", str(m), "--n", str(n), "--max-weight", str(w.DIMS_WEIGHT)])
        )
    for m, n, _ in w.RANDOM_SETS:
        out.append((f"dims-table:{m}:{n}:4", ["dims", "--m", str(m), "--n", str(n), "--max-weight", "4"]))
    for cert, m, n, depth in w.CERTIFICATES:
        out.append((f"bound:{cert}:{m}:{n}", ["bound", "--certificate", cert, "--m", str(m), "--n", str(n)]))
        out.append(
            (
                f"check-nonneg:{cert}:{m}:{n}:{depth}",
                ["check-nonneg", "--certificate", cert, "--m", str(m), "--n", str(n), "--depth", str(depth)],
            )
        )
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "coordinate-3-6.json"
    path.write_text(json.dumps(inputs.exact_config(inputs.coordinate_rows(3, 6), "coordinate-3-6")))
    out.append((f"exact-report:3:6:{w.FLOAT_COPY_TEST}", ["verify-design", "--config", str(path), "--set", w.FLOAT_COPY_TEST]))
    return out


def main():
    jobs = reference_jobs(HERE / "out" / "reference")
    _, _, raw = run_jobs(cli, [{"argv": argv} for _, argv in jobs])
    refs = {}
    for (key, _), outcome in zip(jobs, parse_outcomes(raw)):
        if outcome["error"] or outcome["result"] is None:
            sys.exit(f"{key}: {outcome['error'] or 'no result'}")
        result = outcome["result"]
        if key.startswith("check-nonneg:"):
            result = {k: v for k, v in result.items() if k != "points_checked"}
        refs[key] = result if key.startswith(("exact-report:", "dims-table:")) else w.result_hash(result)
    (HERE / "reference.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"{len(refs)} references written")


if __name__ == "__main__":
    main()
