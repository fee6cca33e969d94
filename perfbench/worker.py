"""One pass of a workload in a fresh interpreter.

Usage: python3 worker.py <pass.json>   (reads the request, writes the reply)

The request names the job file, the reference file, whether to trace and
where to write the reply.  The worker times the import of the package,
then runs every job as an in-process ``grassdesign.cli.main(argv)`` call
with stdout captured, so argument parsing, library work and JSON emit
are all on the clock.  Checks, hashing and trace analysis run after the
clock stops.  A fresh process per pass keeps every pass cold: caches
filled by one pass never serve the next.

The speed of a shared host drifts by tens of percent within seconds, and
the drift moves a fixed stretch of exact rational arithmetic just as it
moves the jobs.  So times are reported in seconds at the reference host
speed: a SIGALRM handler times the calibration loop 20 times a second,
and each job's wall time, less the time spent in the handler, is scaled
by CAL_NOMINAL_S over the median loop time sampled during the job and
just around it.  The loop runs with the garbage collector off, so it
times the host and not a collection over the program's heap.  Wall
times are kept in the reply too.

The import is timed as CPU time of the main thread: its wall time also
holds waits on files and on the threads numpy starts, which spread more
than the work does, and the calibration loop does not track it.
"""

import bisect
import contextlib
import gc
import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback

# Median time of _calibration_loop() on the reference host (the machine of
# the first baseline); it only sets the scale of reported times.
CAL_NOMINAL_S = 0.00075
SAMPLE_EVERY_S = 0.05


def _calibration_loop() -> float:
    """Seconds taken by a fixed stretch of Fraction arithmetic.

    The garbage collector is off meanwhile: a collection triggered by the
    loop's own allocations would scan the program's heap and be taken
    for a slow host.
    """
    from fractions import Fraction

    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        x = Fraction(1, 3)
        for i in range(1, 100):
            x = (x + Fraction(i * 7919 % 1000003, i * 104729 % 999983 + 1)) * Fraction(3, 7)
            if x.denominator > 1 << 130:
                x = Fraction(1, 3)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Times the calibration loop every SAMPLE_EVERY_S from a SIGALRM handler."""

    def __init__(self):
        self.starts = []
        self.durations = []

    def sample(self, *_):
        self.starts.append(time.perf_counter())
        self.durations.append(_calibration_loop())

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scaled(self, start: float, end: float) -> float:
        """Seconds at the reference speed spent in [start, end], sampling excluded.

        Uses the samples taken inside the interval plus the last one
        before it and the first one after it.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        busy = sum(self.durations[lo:hi])
        speed = statistics.median(self.durations[max(lo - 1, 0) : hi + 1])
        return (end - start - busy) * CAL_NOMINAL_S / speed


def run_jobs(cli, jobs, on_job=None):
    """Run the jobs one after another while sampling the host speed.

    Returns (scaled seconds, wall seconds, raw outcomes).
    """
    raw = []
    windows = []
    with SpeedSampler() as sampler:
        for index, job in enumerate(jobs):
            if on_job is not None:
                on_job(index)
            out, err = io.StringIO(), io.StringIO()
            error = None
            started = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(job["argv"])
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 2)
                except Exception:  # a job that raises is a failed job, not a failed run
                    code = None
                    error = traceback.format_exc(limit=4)
            windows.append((started, time.perf_counter()))
            raw.append((code, out.getvalue(), error))
    solve_s = sum(sampler.scaled(a, b) for a, b in windows)
    return solve_s, sum(b - a for a, b in windows), raw


def parse_outcomes(raw):
    outcomes = []
    for code, text, error in raw:
        result = None
        if error is None and text:
            try:
                result = json.loads(text)["result"]
            except (ValueError, KeyError, TypeError) as exc:
                error = f"unparseable output: {exc}"
        outcomes.append({"code": code, "result": result, "error": error, "stdout_bytes": len(text)})
    return outcomes


def main(request_path):
    with open(request_path) as fh:
        request = json.load(fh)
    started, started_cpu = time.perf_counter(), time.thread_time()
    import grassdesign
    import grassdesign.cli as cli

    reply = {
        "import_s": time.thread_time() - started_cpu,
        "import_wall_s": time.perf_counter() - started,
        "backend": grassdesign.scalars.BACKEND,
        "module": grassdesign.__file__,
    }
    if request.get("import_only"):
        _write(request["reply"], reply)
        return

    import workloads

    with open(request["jobs"]) as fh:
        jobs = json.load(fh)
    tracer = None
    if request.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            solve_s, solve_wall_s, raw = run_jobs(cli, jobs, on_job=tracer.set_job)
        finally:
            tracer.uninstall()
    else:
        solve_s, solve_wall_s, raw = run_jobs(cli, jobs)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    outcomes = parse_outcomes(raw)
    del raw
    with open(request["refs"]) as fh:
        refs = json.load(fh)
    failures, extra = workloads.check_jobs(jobs, outcomes, refs)
    reply.update(
        solve_s=solve_s,
        solve_wall_s=solve_wall_s,
        peak_rss_mb=peak_rss_kb / 1024.0,
        codes=[o["code"] for o in outcomes],
        hashes=[workloads.result_hash(o["result"]) if o["result"] is not None else None for o in outcomes],
        failures=failures,
        extra=extra,
    )
    if tracer is not None:
        reply["layers"] = tracer.layer_metrics(outcomes)
        tracer.write_spans(request["spans"], [j["id"] for j in jobs])
    _write(request["reply"], reply)


def _write(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


if __name__ == "__main__":
    main(sys.argv[1])
