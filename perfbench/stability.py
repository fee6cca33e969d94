"""Run the benchmark over several seeds and report the spread of each metric.

Usage (from the repository root):

    python3 perfbench/stability.py --runs 10 --workloads kernel-build float-random
    python3 perfbench/stability.py --runs 10 --out perfbench/baseline.json

Each run is a separate ``run.py`` process with its own seed (1 to
``--runs``) and the ``run_seconds`` of BENCHMARK.json, exactly as the
benchmark is meant to be invoked.  For every end-to-end metric the
spread is the distance between the first and third quartile of the runs
(``statistics.quantiles(values, n=4)``) as a share of their median; it is
printed next to a third of the metric's bound from BENCHMARK.json, and
the run fails when a spread is wider, except that of setup_s.  One
traced run per workload (seed 1) follows.  With ``--out`` every run
made is saved with the summary.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(bench, workload, seed, seconds, trace) -> dict:
    started = time.monotonic()
    proc = subprocess.run(
        [*bench["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {
        "seed": seed,
        "trace": trace,
        "wall_s": time.monotonic() - started,
        "meta": json.loads(lines[0])["meta"],
        "result": json.loads(lines[-1]),
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    report = {"seconds": seconds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(run_once(bench, workload, seed, seconds, 0))
            values = {k: round(v["value"], 4) for k, v in runs[-1]["result"]["metrics"].items()}
            print(f"{workload} seed {seed}: correct={runs[-1]['result']['correct']} {values}"
                  f" ({runs[-1]['wall_s']:.0f} s)", flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            summary[name] = {
                "median": statistics.median(values),
                "spread": spread(values),
                "third_of_bound": bound / 3,
            }
            # The host's speed drifts between runs and moves the import with
            # it; no calibration loop tracks the import (README), so the
            # spread of setup_s is shown but not gated.
            gated = name != "setup_s"
            ok = not gated or summary[name]["spread"] <= bound / 3
            steady = steady and ok and all(r["result"]["correct"] for r in runs)
            print(f"  {workload} {name}: median {summary[name]['median']:.4g} spread {summary[name]['spread']:.3f}"
                  f" (a third of the bound: {bound / 3:.3f}){'' if ok else '  TOO WIDE'}{'' if gated else '  not gated'}")
        traced = run_once(bench, workload, 1, seconds, 1)
        steady = steady and traced["result"]["correct"]
        overhead = traced["result"]["metrics"]["trace.overhead_ratio"]["value"]
        print(f"  {workload} traced run: correct={traced['result']['correct']} overhead {overhead:.3f}"
              f" ({traced['wall_s']:.0f} s)", flush=True)
        report["workloads"][workload] = {"summary": summary, "runs": runs, "traced_run": traced}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
