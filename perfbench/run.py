"""grassdesign benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload kernel-build --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload float-random --seed 1 --smoke --trace 1

The inputs of a workload come from ``--seed`` alone.  A closed loop with
a single client runs the workload's job list again and again, each pass
in a fresh interpreter, until ``--seconds`` have passed; end-to-end times
are medians over the passes.  With ``--trace 1`` one untraced and one
traced pass give the per-layer metrics and the tracing overhead, and the
traced results must hash the same as the untraced ones.  ``--smoke``
makes a single pass and skips the extra set-up samples.

Every line but the last is for people: run metadata and one
``name value unit`` line per metric.  The last line is one JSON object
with the keys correct, attempted, failed and metrics.  Inputs, pass
replies and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
    "jobs_ok_ratio": "ratio",
}

# Set-up time is the median of at least this many fresh imports.
SETUP_SAMPLES = 11
# A run never starts a pass that could end after this many seconds.
RUN_BUDGET_S = 150.0


class RunError(RuntimeError):
    pass


class Runner:
    """Starts worker processes for one workload run, one at a time."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workdir = HERE / "out" / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.jobs = workloads.build(workload, seed, self.workdir)
        self.jobs_path = self.workdir / "jobs.json"
        self.jobs_path.write_text(json.dumps(self.jobs, indent=1))
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        # the package picks its own backend and default seed
        self.env.pop("GRASSDESIGN_BACKEND", None)
        self.env.pop("GRASSDESIGN_SEED", None)
        self.started = time.monotonic()
        self.count = 0

    def remaining(self) -> float:
        return RUN_BUDGET_S + 20.0 - (time.monotonic() - self.started)

    def run(self, import_only=False, trace=False) -> dict:
        self.count += 1
        tag = f"{self.count:03d}"
        request = {
            "import_only": import_only,
            "trace": trace,
            "jobs": str(self.jobs_path),
            "refs": str(HERE / "reference.json"),
            "reply": str(self.workdir / f"reply-{tag}.json"),
            "spans": str(self.workdir / f"spans-{tag}.bin"),
        }
        path = self.workdir / f"request-{tag}.json"
        path.write_text(json.dumps(request))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(path)],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(self.remaining(), 1.0),
            )
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise RunError(f"worker {tag} exceeded the run budget") from exc
        if proc.returncode != 0:
            raise RunError(f"worker {tag} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        reply = json.loads(Path(request["reply"]).read_text())
        module = Path(reply["module"]).resolve()
        if SRC.resolve() not in module.parents:
            raise RunError(f"grassdesign was imported from {module}, not from {SRC}")
        return reply


def _count_failures(jobs, reply, failures_out):
    failed = 0
    for job, failure in zip(jobs, reply["failures"]):
        if failure is not None:
            failed += 1
            failures_out.append(f"{job['id']}: {failure}")
    return failed


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    runner = Runner(workload, seed, trace)
    jobs = runner.jobs
    failures = []
    passes = []
    setup = []
    if trace:
        plain = runner.run()
        traced = runner.run(trace=True)
        passes = [plain, traced]
        for i, (a, b) in enumerate(zip(plain["hashes"], traced["hashes"])):
            if a != b and traced["failures"][i] is None:
                traced["failures"][i] = "traced result hash differs from the untraced one"
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = traced["solve_s"] / plain["solve_s"]
        metrics["float_defect_err"] = plain["extra"].get("float_defect_err") or 0.0
        units = tracing.PER_LAYER
    else:
        measure_start = time.monotonic()
        while True:
            t0 = time.monotonic()
            passes.append(runner.run())
            pass_s = time.monotonic() - t0
            if smoke or time.monotonic() - measure_start >= seconds:
                break
            if time.monotonic() - runner.started + 1.5 * pass_s > RUN_BUDGET_S:
                break
        setup = [p["import_s"] for p in passes]
        while not smoke and len(setup) < SETUP_SAMPLES:
            setup.append(runner.run(import_only=True)["import_s"])
        metrics = {
            "setup_s": statistics.median(setup),
            "solve_s": statistics.median(p["solve_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        units = END_TO_END
    attempted = len(jobs) * len(passes)
    failed = sum(_count_failures(jobs, p, failures) for p in passes)
    if not trace:
        metrics["jobs_ok_ratio"] = (attempted - failed) / attempted
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(passes),
        "solve_s_per_pass": [p["solve_s"] for p in passes],
        "solve_wall_s_per_pass": [p["solve_wall_s"] for p in passes],
        "import_wall_s_per_pass": [p["import_wall_s"] for p in passes],
        "setup_s_per_sample": setup,
        "failures": failures[:50],
        "meta": metadata(seed, passes[0]["backend"]),
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        },
    }
    (runner.workdir / "run.json").write_text(json.dumps(record, indent=1))
    return record


def metadata(seed: int, backend: str) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "not installed"

    return {
        "backend": backend,
        "gmpy2": "installed" if importlib.util.find_spec("gmpy2") else "not installed",
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "seed": seed,
        "commit": _git_commit(),
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_record(record: dict, prefix: str = ""):
    print(json.dumps({"meta": record["meta"], "workload": record["workload"], "passes": record["passes"]}))
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    for name, m in record["result"]["metrics"].items():
        print(f"{prefix}{name} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass, no extra set-up samples")
    args = parser.parse_args(argv)
    if not (SRC / "grassdesign" / "__init__.py").is_file():
        print(f"error: no grassdesign sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
            print_record(record, prefix=f"{name} " if len(names) > 1 else "")
            records.append(record)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        result = records[0]["result"]
    else:
        result = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {
                f"{r['workload']}.{name}": m for r in records for name, m in r["result"]["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
