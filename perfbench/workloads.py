"""The four workloads: seeded job lists and the checks on their outputs.

A job is one ``grassdesign`` command line plus the exit code it must
return and the check its ``result`` payload must pass.  Builders write
their input files into a work directory and return the job list; they
depend only on the seed.  Checks run after the timed pass and never
abort it: a job whose check fails is counted as failed.

Why these workloads (each stresses different layers):

* ``antipodal-exact``: exact pair geometry (Gram, cross-Gram, invert,
  charpoly, rational roots) on sparse 0/1 coordinate sets and on dense
  Gaussian-rational disguised copies of them.
* ``kernel-build``: cold James-Constantine kernel construction for many
  shapes in one process; the only workload where generalized-binomial
  tables are shared between kernels, so caching changes show here.
* ``certificate-grid``: exact evaluation of a few small cached kernels at
  thousands of rational points; kernel construction is negligible.
* ``float-random``: the float path (orthonormalization, SVD, float Schur
  evaluation) on sets where every pair has its own angle vector.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import comb, isfinite
from pathlib import Path

import inputs

WORKLOADS = ("antipodal-exact", "kernel-build", "certificate-grid", "float-random")

# Coordinate sets verified in antipodal-exact, and the ones disguised.
ANTIPODAL_SETS = ((2, 4), (2, 5), (2, 6), (3, 6))
DISGUISED_SETS = ((2, 6), (3, 6))

# Largest shape weight per rank in kernel-build; (5,4,3) at m = 4 alone
# would take about 40 s, so rank 4 stops at weight 7.
KERNEL_WEIGHT_CAPS = {2: 8, 3: 7, 4: 7}
DIMS_WEIGHT = 7

# (certificate, m, n, grid depth) for certificate-grid.
CERTIFICATES = (("F", 2, 5, 20), ("F", 3, 7, 12), ("F", 4, 9, 6), ("E", 4, 8, 8))
NONNEG_SAMPLES = 100

# (m, n, points) of the random float sets; the float copies of G(3, 6)
# are checked against its exact T3 report.
RANDOM_SETS = ((2, 6, 60), (3, 8, 40))
FLOAT_COPY_TEST = "T3"
FLOAT_TOL = 1e-8


def result_hash(result) -> str:
    """SHA-256 of the canonical JSON of a ``result`` payload."""
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _job(job_id, argv, expect, **check):
    return {"id": job_id, "argv": argv, "expect": expect, "check": check}


def _write(workdir: Path, name: str, config: dict) -> str:
    path = workdir / name
    path.write_text(json.dumps(config))
    return str(path)


def partitions_up_to(m: int, weight: int) -> list:
    """All shapes with m parts (zeros included) and weight at most ``weight``."""
    out = []

    def extend(prefix, cap, left):
        if len(prefix) == m:
            out.append(tuple(prefix))
            return
        for p in range(min(cap, left) + 1):
            extend(prefix + [p], p, left - p)

    extend([], weight, weight)
    return sorted(out, key=lambda p: (sum(p), [-x for x in p]))


def shape_arg(parts) -> str:
    return ",".join(str(p) for p in parts)


def build_antipodal_exact(seed: int, workdir: Path) -> list:
    jobs = []
    for m, n in ANTIPODAL_SETS:
        jobs.append(
            _job(
                f"antipodal-{m}-{n}",
                ["antipodal", "--m", str(m), "--n", str(n), "--verify", "E+F"],
                0,
                kind="ref",
                key=f"antipodal:{m}:{n}:E+F",
            )
        )
    jobs.append(
        _job("appendix-b", ["appendix-b", "--verify", "E+F"], 1, kind="ref", key="appendix-b:E+F")
    )
    rng = random.Random(seed)
    sets = [(f"{m}-{n}", inputs.coordinate_rows(m, n), f"antipodal-{m}-{n}", 0) for m, n in DISGUISED_SETS]
    sets.append(("six", inputs.six_point_rows(), "appendix-b", 1))
    for name, rows, original, expect in sets:
        config = inputs.exact_config(inputs.disguise(rows, rng.getrandbits(32)), f"disguised-{name}")
        path = _write(workdir, f"disguised-{name}.json", config)
        jobs.append(
            _job(
                f"disguised-{name}",
                ["verify-design", "--config", path, "--set", "E+F"],
                expect,
                kind="same_defects",
                of=original,
            )
        )
    return jobs


def kernel_ns(seed: int) -> dict:
    """The n drawn for each rank: uniform on [2m, 2m + 3]."""
    rng = random.Random(seed)
    return {m: rng.randint(2 * m, 2 * m + 3) for m in sorted(KERNEL_WEIGHT_CAPS)}


def build_kernel_build(seed: int, workdir: Path) -> list:
    ns = kernel_ns(seed)
    jobs = []
    for m, cap in sorted(KERNEL_WEIGHT_CAPS.items()):
        n = ns[m]
        for parts in partitions_up_to(m, cap):
            jobs.append(
                _job(
                    f"zonal-{shape_arg(parts)}-{n}",
                    ["zonal", "--mu", shape_arg(parts), "--m", str(m), "--n", str(n)],
                    0,
                    kind="zonal",
                    key=f"zonal:{shape_arg(parts)}:{n}",
                    parts=list(parts),
                    n=n,
                )
            )
    random.Random(seed ^ 0x5A5A).shuffle(jobs)
    m = max(KERNEL_WEIGHT_CAPS)
    jobs.append(
        _job(
            "dims",
            ["dims", "--m", str(m), "--n", str(ns[m]), "--max-weight", str(DIMS_WEIGHT)],
            0,
            kind="ref",
            key=f"dims:{m}:{ns[m]}:{DIMS_WEIGHT}",
        )
    )
    return jobs


def build_certificate_grid(seed: int, workdir: Path) -> list:
    jobs = []
    for cert, m, n, depth in CERTIFICATES:
        jobs.append(
            _job(
                f"bound-{cert}-{m}-{n}",
                ["bound", "--certificate", cert, "--m", str(m), "--n", str(n)],
                0,
                kind="bound",
                key=f"bound:{cert}:{m}:{n}",
                m=m,
                n=n,
            )
        )
        jobs.append(
            _job(
                f"check-nonneg-{cert}-{m}-{n}",
                [
                    "--seed", str(seed),
                    "check-nonneg", "--certificate", cert, "--m", str(m), "--n", str(n),
                    "--depth", str(depth), "--samples", str(NONNEG_SAMPLES),
                ],
                0,
                kind="nonneg",
                key=f"check-nonneg:{cert}:{m}:{n}:{depth}",
                points=comb(depth + m, m) + NONNEG_SAMPLES,
            )
        )
    return jobs


def build_float_random(seed: int, workdir: Path) -> list:
    rng = random.Random(seed)
    jobs = []
    for m, n, size in RANDOM_SETS:
        path = _write(
            workdir, f"random-{m}-{n}.json", inputs.random_float_config(m, n, size, rng.getrandbits(32))
        )
        jobs.append(
            _job(
                f"random-{m}-{n}",
                ["verify-design", "--config", path, "--set", "T4"],
                1,
                kind="random_float",
                size=size,
                key=f"dims-table:{m}:{n}:4",
            )
        )
    coordinate = inputs.coordinate_rows(3, 6)
    copies = {
        "coordinate": inputs.exact_config(coordinate, "coordinate-3-6"),
        "disguised": inputs.exact_config(inputs.disguise(coordinate, rng.getrandbits(32)), "disguised-3-6"),
    }
    for name, config in copies.items():
        path = _write(workdir, f"float-{name}-3-6.json", inputs.float_copy(config))
        jobs.append(
            _job(
                f"float-{name}-3-6",
                ["verify-design", "--config", path, "--set", FLOAT_COPY_TEST],
                1,
                kind="float_copy",
                key=f"exact-report:3:6:{FLOAT_COPY_TEST}",
            )
        )
    return jobs


BUILDERS = {
    "antipodal-exact": build_antipodal_exact,
    "kernel-build": build_kernel_build,
    "certificate-grid": build_certificate_grid,
    "float-random": build_float_random,
}


def build(workload: str, seed: int, workdir: Path) -> list:
    workdir.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](seed, workdir)


# ---------------------------------------------------------------- checks


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _check_ref(job, result, refs, ctx):
    key = job["check"]["key"]
    _require(key in refs, f"no reference for {key}")
    _require(result_hash(result) == refs[key], f"result hash differs from reference {key}")


def _check_same_defects(job, result, refs, ctx):
    original = ctx["results"].get(job["check"]["of"])
    _require(original is not None, f"no result for {job['check']['of']}")
    report = original.get("report", original)
    _require(result["entries"] == report["entries"], "defects differ from the undisguised set")
    _require(result["design"] == report["design"], "verdict differs from the undisguised set")


def _check_zonal(job, result, refs, ctx):
    _check_ref(job, result, refs, ctx)
    from grassdesign import zonal
    from grassdesign.partitions import Partition

    parts, n = job["check"]["parts"], job["check"]["n"]
    m = len(parts)
    mu = Partition(parts, m=m)
    closed = []
    weight = sum(parts)
    if all(p <= 1 for p in parts):
        closed.append(zonal.zonal_column(weight, m, n))
    if all(p == 0 for p in parts[1:]):
        closed.append(zonal.zonal_row(weight, m, n))
    if parts[0] == 2 and all(p <= 1 for p in parts[1:]):
        closed.append(zonal.zonal_hook(weight - 1, m, n))
    for kernel in closed:
        _require(kernel.mu == mu, f"closed form built {kernel.mu} for {mu}")
        _require(kernel.to_json() == result, f"kernel {parts} differs from its closed form")


def _check_bound(job, result, refs, ctx):
    _check_ref(job, result, refs, ctx)
    c = job["check"]
    _require(result["bound"] == str(comb(c["n"], c["m"])), "bound is not binomial(n, m)")


def _check_nonneg(job, result, refs, ctx):
    _require(result["nonnegative_on_grid"] is True, "certificate negative somewhere")
    _require(result["violations"] == [], "violations reported")
    _require(result["minimum"] == "0", f"minimum {result['minimum']} is not 0")
    _require(result["points_checked"] == job["check"]["points"], "wrong number of points checked")
    grid_part = {k: v for k, v in result.items() if k != "points_checked"}
    key = job["check"]["key"]
    _require(result_hash(grid_part) == refs.get(key), f"result hash differs from reference {key}")


def _check_random_float(job, result, refs, ctx):
    """Bounds every defect must meet, since no exact report exists for random sets.

    The kernel of shape mu is positive definite with Z(x, x) = dim, so a
    defect, the sum of Z over all pairs, lies in [0, |X|^2 * dim].
    """
    c = job["check"]
    _require(result["mode"] == "float" and result["size"] == c["size"], "wrong mode or size")
    dims = {tuple(row["mu"]): row["dim"] for row in refs[c["key"]]["table"]}
    _require(sorted(tuple(e["mu"]) for e in result["entries"]) == sorted(dims), "wrong shapes")
    scale = c["size"] ** 2
    for entry in result["entries"]:
        dim = dims[tuple(entry["mu"])]
        _require(entry["dim"] == dim, f"dimension of {entry['mu']} differs from the reference")
        defect = entry["defect"]
        _require(isfinite(defect), f"defect of {entry['mu']} is not finite")
        _require(
            -FLOAT_TOL * scale * dim <= defect <= (1 + FLOAT_TOL) * scale * dim,
            f"defect {defect} of {entry['mu']} outside [0, |X|^2 * dim]",
        )
    zero = result["entries"][0]
    _require(abs(zero["defect"] - scale) <= FLOAT_TOL * scale, "zero-shape defect is not |X|^2")
    _require(result["design"] is False, "random set reported as a design")


def _check_float_copy(job, result, refs, ctx):
    exact = refs[job["check"]["key"]]
    _require(len(result["entries"]) == len(exact["entries"]), "wrong number of shapes")
    _require(result["design"] == exact["design"], "float verdict differs from the exact one")
    scale = result["size"] ** 2
    for got, want in zip(result["entries"], exact["entries"]):
        _require(got["mu"] == want["mu"] and got["dim"] == want["dim"], "shape or dimension differs")
        _require(got["pass"] == want["pass"], f"float verdict for {got['mu']} differs from the exact one")
        err = abs(got["defect"] - float(Fraction(want["defect"]))) / (scale * want["dim"])
        _require(err <= FLOAT_TOL, f"float defect error {err} above tolerance")
        ctx["float_defect_err"] = max(ctx.get("float_defect_err", 0.0), err)


CHECKS = {
    "ref": _check_ref,
    "same_defects": _check_same_defects,
    "zonal": _check_zonal,
    "bound": _check_bound,
    "nonneg": _check_nonneg,
    "random_float": _check_random_float,
    "float_copy": _check_float_copy,
}


def check_jobs(jobs: list, outcomes: list, refs: dict) -> tuple:
    """Per-job failure messages (None when the job passed) and extra values.

    ``outcomes`` holds, per job, its exit code, its parsed ``result`` (or
    None) and the error text of a job that raised.
    """
    ctx = {"results": {j["id"]: o["result"] for j, o in zip(jobs, outcomes) if o["result"] is not None}}
    failures = []
    for job, outcome in zip(jobs, outcomes):
        if outcome["error"]:
            failures.append(outcome["error"])
        elif outcome["code"] != job["expect"]:
            failures.append(f"exit code {outcome['code']}, expected {job['expect']}")
        elif outcome["result"] is None:
            failures.append("no result payload")
        else:
            try:
                CHECKS[job["check"]["kind"]](job, outcome["result"], refs, ctx)
                failures.append(None)
            except (CheckFailed, KeyError, TypeError, ValueError) as exc:
                failures.append(f"{type(exc).__name__}: {exc}")
    extra = {"float_defect_err": ctx.get("float_defect_err")}
    return failures, extra
