"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import parse_outcomes, run_jobs  # noqa: E402


def _files(directory: Path) -> dict:
    return {p.name: p.read_text() for p in sorted(directory.iterdir())}


def _portable(jobs, directory: Path):
    """Job lists with the work directory replaced, so two directories compare."""
    return json.loads(json.dumps(jobs).replace(str(directory), "WORKDIR"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    jobs_a = workloads.build(workload, 7, a)
    jobs_b = workloads.build(workload, 7, b)
    jobs_c = workloads.build(workload, 8, c)
    assert _portable(jobs_a, a) == _portable(jobs_b, b)
    assert _files(a) == _files(b)
    assert (_portable(jobs_a, a), _files(a)) != (_portable(jobs_c, c), _files(c))


def test_generators_are_deterministic():
    rows = inputs.coordinate_rows(2, 5)
    assert inputs.disguise(rows, 3) == inputs.disguise(rows, 3)
    assert inputs.disguise(rows, 3) != inputs.disguise(rows, 4)
    assert inputs.random_float_config(2, 4, 5, 9) == inputs.random_float_config(2, 4, 5, 9)
    assert inputs.random_float_config(2, 4, 5, 9) != inputs.random_float_config(2, 4, 5, 10)


@pytest.mark.parametrize("rows", [inputs.coordinate_rows(2, 4), inputs.six_point_rows()], ids=["G(2,4)", "six-point"])
def test_disguise_preserves_angle_classes(rows):
    from grassdesign.grassmann import SubspaceConfiguration

    original = SubspaceConfiguration.from_json(inputs.exact_config(rows, "original"))
    config = inputs.exact_config(inputs.disguise(rows, 11), "disguised")
    copy = SubspaceConfiguration.from_json(config)
    assert copy.angle_classes() == original.angle_classes()
    # the copy is dense: no zero entry survives the unitary and the recombination
    assert all(v != "0" for p in config["points"] for row in p["rows"] for v in row)


def test_float_copy_parses_every_entry_form():
    config = inputs.exact_config([[[(inputs.Fraction(-3, 5), inputs.Fraction(-4, 25)), inputs.ONE]]], "x")
    assert config["points"][0]["rows"][0] == ["-3/5-4/25*i", "1"]
    assert inputs.float_copy(config)["points"][0]["rows"][0] == [[-0.6, -0.16], [1.0, 0.0]]


def test_self_times_on_a_synthetic_tree():
    # root [0, 100] has children a [10, 40] and b [30, 60], which overlap,
    # and c [90, 120], which runs past its parent; a has child d [15, 25].
    start = [0, 10, 15, 30, 90]
    end = [100, 40, 25, 60, 120]
    parent = [-1, 0, 1, 0, 0]
    assert tracing.self_times(start, end, parent) == [100 - 50 - 10, 30 - 10, 10, 30, 30]


def test_self_times_of_sequential_calls_sum_to_the_root():
    start = [0, 1, 2, 5, 6]
    end = [10, 4, 3, 9, 7]
    parent = [-1, 0, 1, 0, 3]
    selfs = tracing.self_times(start, end, parent)
    assert selfs == [3, 2, 1, 3, 1]
    assert sum(selfs) == end[0] - start[0]


def test_traced_and_untraced_hashes_are_equal(tmp_path):
    import grassdesign
    import grassdesign.cli as cli

    jobs = workloads.build("antipodal-exact", 5, tmp_path)[:1]
    jobs += [j for j in workloads.build("kernel-build", 5, tmp_path) if j["argv"][2].startswith("2,1")]
    jobs.append({"argv": ["check-nonneg", "--certificate", "F", "--m", "2", "--n", "5", "--depth", "4"]})
    _, _, raw = run_jobs(cli, jobs)
    plain = [workloads.result_hash(o["result"]) for o in parse_outcomes(raw)]

    zonal_kernel = grassdesign.designs.zonal_kernel
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert grassdesign.designs.zonal_kernel is grassdesign.zonal.zonal_kernel is not zonal_kernel
        _, _, raw = run_jobs(cli, jobs, on_job=tracer.set_job)
    finally:
        tracer.uninstall()
    outcomes = parse_outcomes(raw)
    assert [workloads.result_hash(o["result"]) for o in outcomes] == plain
    assert grassdesign.designs.zonal_kernel is zonal_kernel
    assert not hasattr(grassdesign.scalars.ExactComplex.__mul__, "__wrapped__")
    layers = tracer.layer_metrics(outcomes)
    assert layers["cli.main.calls"] == len(jobs)
    assert layers["designs.check_nonnegativity.points"] == 15
    assert set(layers) | {"trace.overhead_ratio", "float_defect_err"} == set(tracing.PER_LAYER)
    assert set(tracer.job) == set(range(len(jobs)))


def test_a_failed_check_counts_the_job_and_goes_on():
    jobs = [
        {"id": "a", "expect": 0, "check": {"kind": "ref", "key": "k"}},
        {"id": "b", "expect": 1, "check": {"kind": "ref", "key": "k"}},
        {"id": "c", "expect": 0, "check": {"kind": "ref", "key": "k"}},
    ]
    outcomes = [{"code": 0, "result": {"x": 1}, "error": None}] * 3
    refs = {"k": workloads.result_hash({"x": 1})}
    failures, _ = workloads.check_jobs(jobs, outcomes, refs)
    assert failures == [None, "exit code 0, expected 1", None]
    failures, _ = workloads.check_jobs(jobs, outcomes, {"k": "0" * 64})
    assert all("hash differs" in f for f in failures if f != "exit code 0, expected 1")


def test_random_float_defects_are_bounded_by_the_reference_dims():
    job = {"id": "r", "expect": 1, "check": {"kind": "random_float", "size": 3, "key": "dims-table:2:6:4"}}
    refs = {"dims-table:2:6:4": {"table": [{"mu": [0, 0], "dim": 1}, {"mu": [1, 0], "dim": 35}]}}

    def failure(defect, dim=35):
        entries = [{"mu": [0, 0], "dim": 1, "defect": 9.0}, {"mu": [1, 0], "dim": dim, "defect": defect}]
        result = {"mode": "float", "size": 3, "design": False, "entries": entries}
        return workloads.check_jobs([job], [{"code": 1, "result": result, "error": None}], refs)[0][0]

    assert failure(4.5) is None
    assert failure(0.0) is None and failure(9.0 * 35) is None
    assert "outside" in failure(-1e-3)
    assert "outside" in failure(9.0 * 35 + 1)
    assert "not finite" in failure(float("nan"))
    assert "dimension" in failure(4.5, dim=36)


def test_benchmark_json_lists_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.PER_LAYER


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,trace", [("certificate-grid", 0), ("float-random", 1)])
def test_smoke_run_prints_the_result_line(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--smoke", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = tracing.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kernel-build", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
