"""Command-line surface: exit codes, JSON shape, determinism, file formats."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import grassdesign
from grassdesign import designs, grassmann
from grassdesign.cli import main
from grassdesign.grassmann import great_antipodal, random_subspace, SubspaceConfiguration


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_dims_table(capsys):
    code, doc = run_json(capsys, "dims", "--m", "2", "--n", "4", "--max-weight", "2")
    assert code == 0
    table = {tuple(r["mu"]): r["dim"] for r in doc["result"]["table"]}
    assert table == {(0, 0): 1, (1, 0): 15, (1, 1): 20, (2, 0): 84}
    assert doc["manifest"]["command"] == "dims"
    assert doc["manifest"]["version"]


def test_zonal_expansion(capsys):
    code, doc = run_json(capsys, "zonal", "--mu", "2,1", "--m", "2", "--n", "4")
    assert code == 0
    assert doc["result"]["dim"] == 175
    terms = {tuple(t["partition"]): t["coeff"] for t in doc["result"]["terms"]}
    assert terms[(2, 1)] == "1400"
    assert terms[(0, 0)] == "-175"


def test_antipodal_verified(capsys):
    code, doc = run_json(
        capsys, "antipodal", "--m", "2", "--n", "4", "--verify", "E+F"
    )
    assert code == 0
    assert doc["result"]["size"] == 6
    assert doc["result"]["pairwise_antipodal"] is True
    entries = doc["result"]["report"]["entries"]
    constrained = [e for e in entries if any(e["mu"])]
    assert constrained and all(e["defect"] == "0" for e in constrained)


def test_largest_exact_antipodal_result_is_pinned(capsys):
    # G(4, 8): 70 points, 2485 pair angles; SHA-256 of the canonical JSON
    # of the result, recorded before the pair layer moved to Gaussian integers
    code, doc = run_json(capsys, "antipodal", "--m", "4", "--n", "8", "--verify", "E+F")
    assert code == 0
    text = json.dumps(doc["result"], sort_keys=True, separators=(",", ":"))
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "c8383a2fe30bd018f9b43f97d84aeb1c6831dfb1802bff7990b000142915baa7"
    )


def test_check_nonneg_result_is_pinned(capsys):
    # F at (3, 7): 455 grid points and 100 seeded samples; SHA-256 of the
    # canonical JSON of the result, recorded before exact evaluation moved
    # to integer Jacobi-Trudi numerators
    code, doc = run_json(
        capsys,
        "--seed", "1", "check-nonneg", "--certificate", "F", "--m", "3", "--n", "7",
        "--depth", "12", "--samples", "100",
    )
    assert code == 0
    text = json.dumps(doc["result"], sort_keys=True, separators=(",", ":"))
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "d12d91d815a8d74f8eb43151151e4148d6c090fb93828f23965ba7bfba0c0c33"
    )


def test_six_point_command_split_verdicts(capsys):
    code_e, doc_e = run_json(capsys, "appendix-b", "--verify", "E")
    assert code_e == 0 and doc_e["result"]["report"]["design"] is True
    code_ef, doc_ef = run_json(capsys, "appendix-b", "--verify", "E+F")
    assert code_ef == 1
    failing = [
        e
        for e in doc_ef["result"]["report"]["entries"]
        if e["mu"] == [2, 1] and not e["pass"]
    ]
    assert failing and failing[0]["defect"] == "700"


def test_six_point_angle_matrix(capsys):
    code, doc = run_json(capsys, "appendix-b")
    assert code == 0
    angles = doc["result"]["angles"]
    assert angles[2][4] == ["1/2", "0"]
    assert angles[0][1] == ["0", "0"]
    assert angles[3][3] == ["1", "1"]


def test_bound_command(capsys):
    code, doc = run_json(capsys, "bound", "--certificate", "E", "--m", "2", "--n", "4")
    assert code == 0
    assert doc["result"]["bound"] == "6"
    assert doc["result"]["c_zero"] == "1/6"
    code, doc = run_json(capsys, "bound", "--certificate", "one", "--m", "2", "--n", "4")
    assert doc["result"]["bound"] == "2"
    code, doc = run_json(capsys, "bound", "--certificate", "F", "--m", "2", "--n", "4")
    assert doc["result"]["bound"] == "6"


def test_check_nonneg_command(capsys):
    code, doc = run_json(
        capsys,
        "check-nonneg", "--certificate", "E", "--m", "2", "--n", "4", "--depth", "10",
    )
    assert code == 0
    assert doc["result"]["minimum"] == "0"
    assert doc["result"]["nonnegative_on_grid"] is True


def test_angles_and_verify_from_config_file(tmp_path, capsys):
    config = great_antipodal(2, 4)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_json()))
    code, doc = run_json(capsys, "angles", "--config", str(path))
    assert code == 0
    assert doc["result"]["angles"][0][0] == ["1", "1"]
    assert doc["result"]["angles"][0][5] == ["0", "0"]
    code, doc = run_json(
        capsys, "verify-design", "--config", str(path), "--set", "E+F"
    )
    assert code == 0 and doc["result"]["design"] is True
    code, doc = run_json(
        capsys, "verify-design", "--config", str(path), "--set", "T2"
    )
    assert code == 1 and doc["result"]["design"] is False


def test_float_config_round_trip(tmp_path, capsys):
    pts = [random_subspace(2, 4, seed=k) for k in range(4)]
    config = SubspaceConfiguration(pts, label="floats")
    path = tmp_path / "float.json"
    path.write_text(json.dumps(config.to_json()))
    code, doc = run_json(
        capsys, "verify-design", "--config", str(path), "--set", "E", "--tol", "1e-8"
    )
    assert code == 1
    assert doc["result"]["mode"] == "float"


def test_csv_emission(tmp_path, capsys):
    config = great_antipodal(2, 4)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_json()))
    code, out = run(
        capsys,
        "verify-design", "--config", str(path), "--set", "E", "--emit", "csv",
    )
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert lines[0] == "mu,defect,dim,pass"
    assert any(line.startswith("1 0,0,15,True") for line in lines)


def test_result_payload_is_byte_stable(capsys):
    _, first = run(capsys, "zonal", "--mu", "2,1", "--m", "3", "--n", "6")
    _, second = run(capsys, "zonal", "--mu", "2,1", "--m", "3", "--n", "6")
    first_result = json.dumps(json.loads(first)["result"])
    second_result = json.dumps(json.loads(second)["result"])
    assert first_result == second_result


@pytest.mark.parametrize(
    "argv",
    [
        ["antipodal", "--m", "2", "--n", "4", "--verify", "E+F"],
        ["appendix-b", "--verify", "E+F"],
    ],
)
def test_principal_angles_once_per_pair(argv, capsys, monkeypatch):
    calls = []
    original = grassmann.principal_angles

    def counting(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(grassmann, "principal_angles", counting)
    main(argv)
    capsys.readouterr()
    k = 6
    assert len(calls) == k * (k + 1) // 2


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    # --seed is the only way to set the seed
    code, doc = run_json(capsys, "--seed", "3", "dims", "--m", "2", "--n", "4")
    assert doc["manifest"]["seed"] == 3


@pytest.mark.parametrize(
    "variable, value", [("GRASSDESIGN_BACKEND", "gmpy2"), ("GRASSDESIGN_SEED", "abc")]
)
def test_environment_changes_nothing(variable, value):
    src = Path(grassdesign.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), **{variable: value})
    proc = subprocess.run(
        [sys.executable, "-m", "grassdesign", "dims", "--m", "1", "--n", "2"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["manifest"]["seed"] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["antipodal", "--m", "2", "--n", "4", "--verify", "E", "--tol", "0.5"],
        ["appendix-b", "--tol", "0.5"],
    ],
)
def test_tolerance_only_on_verify_design(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_usage_errors_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["bound", "--certificate", "bogus", "--m", "2", "--n", "4"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["verify-design", "--config", "/nonexistent.json", "--set", "E"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["zonal", "--mu", "1,2", "--m", "2", "--n", "4"])  # not a partition
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["dims", "--m", "2", "--n", "4", "--max-weight", "-1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["zonal", "--mu", "1", "--m", "2", "--n", "4", "--emit", "csv"])  # no table
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["check-nonneg", "--certificate", "one", "--m", "1", "--n", "2", "--depth", "3",
              "--samples", "-4"])
    assert err.value.code == 2
    # a zero denominator, a float entry in an exact configuration, a
    # top-level list, rows that are not a list of lists, a non-integer
    # declared rank, a non-numeric float entry, boolean entries in exact
    # and float mode, a boolean declared rank, non-integral declared m
    # and n, a non-string label, and float entries too large for a float
    # (a number, inside an [re, im] pair and as a string)
    huge = 10**400
    good = {"m": 1, "n": 2, "mode": "exact", "points": [{"rows": [["1", "0"]]}]}
    bad_configs = [
        dict(good, points=[{"rows": [["1/0", "1"]]}]),
        dict(good, points=[{"rows": [[1.5, "1"]]}]),
        [good],
        dict(good, points=[{"rows": 5}]),
        dict(good, points=[{"rows": [5]}]),
        dict(good, points=[5]),
        dict(good, m=[1]),
        dict(good, mode="float", points=[{"rows": [[{"re": 1}, 0]]}]),
        dict(good, points=[{"rows": [[True, False]]}]),
        dict(good, mode="float", points=[{"rows": [[True, False]]}]),
        dict(good, m=True),
        dict(good, m=1.9),
        dict(good, n=2.5),
        dict(good, label=[1]),
        dict(good, mode="float", points=[{"rows": [[huge, 0]]}]),
        dict(good, mode="float", points=[{"rows": [[[huge, 0], 0]]}]),
        dict(good, mode="float", points=[{"rows": [[str(huge), 0]]}]),
    ]
    for config in bad_configs:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        with pytest.raises(SystemExit) as err:
            main(["angles", "--config", str(path)])
        assert err.value.code == 2, config
    # an empty basis row in exact mode: the message names the bad shape
    path.write_text(json.dumps(dict(good, points=[{"rows": [[]]}])))
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(["angles", "--config", str(path)])
    assert err.value.code == 2
    assert "bad shape (1, 0)" in capsys.readouterr().err
    # NaN and infinite float entries: named, not left to fail in the SVD
    for entry in (float("nan"), [0, float("-inf")]):
        path.write_text(json.dumps(dict(good, mode="float", points=[{"rows": [[1, entry]]}])))
        with pytest.raises(SystemExit) as err:
            main(["angles", "--config", str(path)])
        assert err.value.code == 2
        assert "not finite" in capsys.readouterr().err
    # tolerances that are infinite, not a number or negative, on a float
    # G(1, 2) pair that is not a design
    pair = {
        "m": 1,
        "n": 2,
        "mode": "float",
        "points": [{"rows": [[1, 0]]}, {"rows": [[0.6, 0.8]]}],
    }
    path.write_text(json.dumps(pair))
    assert main(["verify-design", "--config", str(path), "--set", "E"]) == 1
    for tol in ("inf", "nan", "-1"):
        with pytest.raises(SystemExit) as err:
            main(["verify-design", "--config", str(path), "--set", "E", "--tol", tol])
        assert err.value.code == 2, tol


def test_root_search_limit_exits_three_fast(tmp_path, capsys):
    # seeded integer entries in [-100, 100]: the square-free charpoly's end
    # coefficients have about 38 and 50 bits, beyond the root-search budget
    rng = random.Random(1)
    points = [
        {"rows": [[str(rng.randint(-100, 100)) for _ in range(4)] for _ in range(2)]}
        for _ in range(2)
    ]
    config = {"m": 2, "n": 4, "mode": "exact", "label": "seeded pair", "points": points}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(config))
    started = time.perf_counter()
    code = main(["angles", "--config", str(path)])
    elapsed = time.perf_counter() - started
    err = json.loads(capsys.readouterr().err)
    assert code == 3
    assert err["error"]["code"] == "root-search-limit"
    assert "float mode" in err["error"]["message"]
    assert elapsed < 2


def test_grid_limit_exits_three_before_building_points(capsys, monkeypatch):
    def no_grid(m, depth):
        raise AssertionError("grid built past the point budget")

    monkeypatch.setattr(designs, "descending_grid", no_grid)
    started = time.perf_counter()
    code = main(["check-nonneg", "--certificate", "E", "--m", "2", "--n", "4",
                 "--depth", "100000000"])
    elapsed = time.perf_counter() - started
    err = json.loads(capsys.readouterr().err)
    assert code == 3
    assert err["error"]["code"] == "grid-limit"
    assert str(designs.GRID_POINT_BUDGET) in err["error"]["message"]
    assert elapsed < 2


def test_computational_errors_exit_three(tmp_path, capsys):
    config = {
        "m": 2,
        "n": 4,
        "mode": "exact",
        "label": "irrational pair",
        "points": [
            {"rows": [["1", "0", "0", "0"], ["0", "1", "1", "0"]]},
            {"rows": [["1", "1", "0", "0"], ["0", "0", "1", "1"]]},
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    code = main(["angles", "--config", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    err = json.loads(captured.err)
    assert err["error"]["code"] == "irrational-angles"
