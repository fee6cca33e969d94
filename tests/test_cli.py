"""Command-line surface: exit codes, JSON shape, determinism, file formats."""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import grassdesign
from grassdesign import designs, exactlinalg, grassmann, symfunc, zonal
from grassdesign import cli
from grassdesign.cli import _json_text, main
from grassdesign.grassmann import angles_to_json, great_antipodal, SubspaceConfiguration
from grassdesign.partitions import RANK_BUDGET, SHAPE_BUDGET, Partition

from argparse_oracle import build_parser
from exact_oracles import kernel_expansion
from seeded_configs import dense_point, disguised_points, exact_document, float_document, random_subspace


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


def test_dims_at_large_n_is_fast(capsys):
    # the Weyl product takes O(m^2) factors, not one per pair of the
    # length-n signature
    started = time.perf_counter()
    code, doc = run_json(capsys, "dims", "--m", "1", "--n", "100000", "--max-weight", "1")
    assert time.perf_counter() - started < 1
    assert code == 0
    assert [r["dim"] for r in doc["result"]["table"]] == [1, 9999999999]


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


def test_disguised_exact_design_result_is_pinned(tmp_path, capsys):
    # verify-design on a seeded disguise of G(3, 6): 20 dense points, each
    # loaded from Gaussian-rational text; SHA-256 of the canonical JSON of
    # the result, recorded before exact entries were parsed straight into
    # Gaussian-integer rows
    path = tmp_path / "disguised.json"
    path.write_text(json.dumps(exact_document(disguised_points(3, 6, 3), "disguised-3-6")))
    code, doc = run_json(capsys, "verify-design", "--config", str(path), "--set", "E+F")
    assert code == 0
    text = json.dumps(doc["result"], sort_keys=True, separators=(",", ":"))
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "6fd15d331bdacb3fc95e289f0bf25108eb0f4c10464b06fa1f9d305a59fdf404"
    )


def test_header_is_checked_before_any_point(tmp_path, capsys, monkeypatch):
    # a rank-deficient point under a bad header exits 2 for the header
    rank_one = {"m": 2, "n": 4, "mode": "exact", "points": [{"rows": [["1", "0", "0", "0"]] * 2}]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(rank_one))
    assert main(["angles", "--config", str(path)]) == 3
    assert "rank-deficient" in capsys.readouterr().err

    def no_points(*args):
        raise AssertionError("points decoded under a bad header")

    monkeypatch.setattr(grassmann, "_load_points", no_points)
    for header in ({"m": True}, {"n": 4.0}, {"mode": "fast"}, {"label": 7}):
        path.write_text(json.dumps(dict(rank_one, **header)))
        with pytest.raises(SystemExit) as err:
            main(["angles", "--config", str(path)])
        assert err.value.code == 2, header


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


def test_json_runs_format_no_csv_rows(capsys, monkeypatch):
    # report rows are formatted only as the CSV writer takes them
    def no_rows(report):
        raise AssertionError("a CSV row was formatted")
        yield

    monkeypatch.setattr(cli, "_report_rows", no_rows)
    assert main(["appendix-b", "--verify", "E+F"]) == 1
    assert main(["antipodal", "--m", "2", "--n", "4", "--verify", "E+F"]) == 0
    capsys.readouterr()
    assert main(["appendix-b", "--verify", "E+F", "--emit", "csv"]) == 3
    assert "a CSV row was formatted" in capsys.readouterr().err
    # angle rows reuse the result's text of each angle vector, and each
    # distinct exact vector is formatted once
    calls = []
    monkeypatch.setattr(cli, "angles_to_json", lambda y: calls.append(y) or angles_to_json(y))
    assert main(["appendix-b", "--emit", "csv"]) == 0
    assert sorted(calls) == sorted(grassmann.six_point_config().angle_classes())


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
    # the antipodal set is counted from its atoms, with no pair batch; the
    # six-point set fails the atom certification, and one batch covers
    # every unordered pair, diagonal included, exactly once; angles are
    # read off invariants only to display them, once per distinct class
    batches, factored = [], []
    original_batch = grassmann.invariant_batch
    original_angles = grassmann.invariant_angles

    def counting_batch(points, first, second):
        batches.append(sorted(zip(list(first), list(second))))
        return original_batch(points, first, second)

    def counting_angles(e):
        factored.append(tuple(e))
        return original_angles(e)

    monkeypatch.setattr(grassmann, "invariant_batch", counting_batch)
    monkeypatch.setattr(grassmann, "invariant_angles", counting_angles)
    main(argv)
    capsys.readouterr()
    k = 6
    if argv[0] == "antipodal":
        assert batches == []
        assert factored == []
    else:
        assert len(batches) == 1
        assert batches[0] == [(i, j) for i in range(k) for j in range(i, k)]
        assert len(batches[0]) == k * (k + 1) // 2 == 21
        classes = grassmann.six_point_config().invariant_classes()
        assert len(factored) == len(set(factored)) == len(classes)


def test_antipodal_six_twelve_in_time(capsys):
    # 924 points, 426,426 unordered pairs: counted from the atoms of C^12
    # with no pair batch
    started = time.perf_counter()
    code, doc = run_json(capsys, "antipodal", "--m", "6", "--n", "12", "--verify", "E+F")
    elapsed = time.perf_counter() - started
    assert code == 0 and doc["result"]["pairwise_antipodal"] is True
    assert doc["result"]["size"] == 924
    assert elapsed < 1.5


def test_design_path_builds_no_per_pair_table(capsys, monkeypatch):
    # defects and antipodality read the atoms' class counts alone
    def no_table(*args):
        raise AssertionError("per-pair table built on the design path")

    monkeypatch.setattr(grassmann, "atom_table", no_table)
    monkeypatch.setattr(grassmann, "invariant_batch", no_table)
    monkeypatch.setattr(SubspaceConfiguration, "pair_angles", no_table)
    assert main(["antipodal", "--m", "3", "--n", "6", "--verify", "E+F"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"]["pairwise_antipodal"] is True


def test_float_design_path_builds_no_per_pair_table(tmp_path, capsys, monkeypatch):
    # float defects read the invariants of chunked cross-Grams alone
    def no_table(self):
        raise AssertionError("per-pair table built on the float design path")

    config = SubspaceConfiguration([random_subspace(3, 8, seed=s) for s in range(12)])
    path = tmp_path / "random.json"
    path.write_text(json.dumps(config.to_json()))
    monkeypatch.setattr(SubspaceConfiguration, "pair_angles", no_table)
    monkeypatch.setattr(SubspaceConfiguration, "angle_classes", no_table)
    code, doc = run_json(capsys, "verify-design", "--config", str(path), "--set", "T4")
    assert code == 1 and doc["result"]["mode"] == "float"
    assert doc["result"]["entries"][0]["defect"] == pytest.approx(144, rel=1e-12)


class WriteCounter(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def streamed(text):
    """The document in ``text`` as json.dump streams it, with its newline."""
    buf = io.StringIO()
    json.dump(json.loads(text), buf, indent=2)
    return buf.getvalue() + "\n"


def test_documents_are_written_once_as_streamed(tmp_path, monkeypatch):
    config = SubspaceConfiguration([random_subspace(2, 5, seed=s) for s in range(4)], label="ünï")
    path = tmp_path / "random.json"
    path.write_text(json.dumps(config.to_json()))
    irrational = tmp_path / "irrational.json"
    irrational.write_text(json.dumps({
        "m": 2, "n": 4, "points": [
            {"rows": [["1", "0", "0", "0"], ["0", "1", "1", "0"]]},
            {"rows": [["1", "1", "0", "0"], ["0", "0", "1", "1"]]},
        ],
    }))
    for argv, stream in (
        (["verify-design", "--config", str(path), "--set", "T3"], "stdout"),
        (["antipodal", "--m", "2", "--n", "5", "--verify", "E+F"], "stdout"),
        (["zonal", "--mu", "3,1", "--m", "2", "--n", "6"], "stdout"),
        (["angles", "--config", str(irrational)], "stderr"),
    ):
        written = {"stdout": WriteCounter(), "stderr": WriteCounter()}
        monkeypatch.setattr(sys, "stdout", written["stdout"])
        monkeypatch.setattr(sys, "stderr", written["stderr"])
        main(argv)
        document = written.pop(stream)
        assert document.writes == 1
        assert document.getvalue() == streamed(document.getvalue())
        (other,) = written.values()
        assert other.getvalue() == ""


JSON_SPECIAL_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324])
JSON_SPECIAL_TEXT = st.sampled_from(["", "ünï", "\x00\x1f\n\t\"\\/", "\u2028\ud800", "😀", "\x7f"])
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**40), 10**40),
    st.floats(),
    JSON_SPECIAL_FLOATS,
    st.text(),
    JSON_SPECIAL_TEXT,
)
JSON_KEYS = st.one_of(st.text(), JSON_SPECIAL_TEXT, st.integers(), st.floats(), JSON_SPECIAL_FLOATS, st.booleans(), st.none())
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(JSON_KEYS, inner, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
@example([1, True, 2, 10**5000])
@example([0, -1, 2**70])
def test_emitter_text_is_that_of_json_dumps_indent_2(value):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert _json_text(value) == json.dumps(value, indent=2)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "value, message",
    [
        ({1, 2}, "Object of type set is not JSON serializable"),
        ([1, {"a": object()}], "Object of type object is not JSON serializable"),
        ({(1, 2): 0}, "keys must be str, int, float, bool or None, not tuple"),
        ({"a": {b"k": 0}}, "keys must be str, int, float, bool or None, not bytes"),
    ],
)
def test_emitter_rejects_what_json_rejects(value, message):
    with pytest.raises(TypeError) as stdlib:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError, match=re.escape(message)) as ours:
        _json_text(value)
    assert str(ours.value) == str(stdlib.value)


def disguised_great_antipodal(m, n):
    """great_antipodal(m, n) under an exact dense unitary, rows recombined.

    The unitary is a Gaussian phase (3 + 4i)/5 on the first coordinate
    followed by rotations with cosine 3/5 and sine 4/5 on each pair of
    adjacent coordinates; each point's rows are then mixed by a fixed
    invertible Gaussian-integer matrix.
    """
    from grassdesign.scalars import ExactComplex, rational

    from exact_oracles import exact_basis, exact_complex_point, mat_mul

    unitary = [[ExactComplex(int(i == j)) for j in range(n)] for i in range(n)]
    unitary[0][0] = ExactComplex(rational(3, 5), rational(4, 5))
    for k in range(n - 1):
        rot = [[ExactComplex(int(i == j)) for j in range(n)] for i in range(n)]
        rot[k][k] = rot[k + 1][k + 1] = ExactComplex(rational(3, 5))
        rot[k][k + 1], rot[k + 1][k] = ExactComplex(rational(4, 5)), ExactComplex(rational(-4, 5))
        unitary = mat_mul(unitary, rot)
    mix = [[ExactComplex(1 + (i == j), i - j) for j in range(m)] for i in range(m)]
    points = [
        exact_complex_point(mat_mul(mix, mat_mul([list(r) for r in exact_basis(p)], unitary)))
        for p in great_antipodal(m, n)
    ]
    return SubspaceConfiguration(points, label=f"disguised({m},{n})")


def test_design_path_finds_no_roots(tmp_path, capsys, monkeypatch):
    def no_roots(e):
        raise AssertionError("angles found on the design path")

    monkeypatch.setattr(grassmann, "invariant_angles", no_roots)
    for m in range(1, 5):
        code, doc = run_json(capsys, "antipodal", "--m", str(m), "--n", str(2 * m), "--verify", "E+F")
        assert code == 0 and doc["result"]["pairwise_antipodal"] is True
    config = disguised_great_antipodal(3, 6)
    path = tmp_path / "disguised.json"
    path.write_text(json.dumps(config.to_json()))
    code, doc = run_json(capsys, "verify-design", "--config", str(path), "--set", "E+F")
    assert code == 0
    _, want = run_json(capsys, "antipodal", "--m", "3", "--n", "6", "--verify", "E+F")
    assert doc["result"]["entries"] == want["result"]["report"]["entries"]
    assert config.is_antipodal()


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


@pytest.mark.parametrize(
    "argv",
    [["zonal", "--mu", "0"], ["dims"], ["antipodal"]]
    + [[command, "--certificate", c] for command in ("bound", "check-nonneg") for c in ("E", "F", "one")],
    ids=lambda argv: "-".join(argv[::2]),
)
def test_rank_zero_is_refused_before_any_shape(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv + ["--m", "0", "--n", "0"])
    assert err.value.code == 2
    assert capsys.readouterr().err == "error: rank must be positive, got 0\n"


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
    # a shape with an empty item is refused, and the message names the text
    for text in ("", " ", ",,", "2,,1", "2,", ",1"):
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(["zonal", "--mu", text, "--m", "2", "--n", "4"])
        assert err.value.code == 2
        assert f"--mu {text!r} has an empty item" in capsys.readouterr().err
    # while 0 is the zero shape
    code, doc = run_json(capsys, "zonal", "--mu", "0", "--m", "2", "--n", "4")
    assert code == 0 and doc["result"]["mu"] == [0, 0]
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
    # and n, a non-string label, float entries too large for a float
    # (a number, inside an [re, im] pair and as a string), and float
    # pairs of the wrong length, which the message names
    huge = 10**400
    good = {"m": 1, "n": 2, "mode": "exact", "points": [{"rows": [["1", "0"]]}]}
    named = {
        "not a float matrix entry: [1, 2, 3]": dict(good, mode="float", points=[{"rows": [[[1, 2, 3], 0]]}]),
        "not a float matrix entry: [1]": dict(good, mode="float", points=[{"rows": [[[1], 0]]}]),
    }
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
        *named.values(),
    ]
    for config in bad_configs:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(["angles", "--config", str(path)])
        assert err.value.code == 2, config
        message = next((text for text, c in named.items() if c is config), "")
        assert message in capsys.readouterr().err
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
    # test sets are T and ASCII digits: a superscript or Arabic-Indic digit names none
    for family in ("T\u00b2", "T\u0663"):
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(["verify-design", "--config", str(path), "--set", family])
        assert err.value.code == 2, family
        assert f"unknown test set {family!r}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["antipodal", "--m", "2", "--n", "4"], ["appendix-b"]], ids=["antipodal", "appendix-b"])
@pytest.mark.parametrize("family", ["", " "], ids=["empty", "blank"])
def test_verify_of_an_empty_test_set_exits_two(argv, family, capsys):
    # an empty --verify names a test set, an unknown one, as an empty
    # verify-design --set does; it does not mean "no report"
    with pytest.raises(SystemExit) as err:
        main([*argv, "--verify", family])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unknown test set {family!r}" in captured.err


def test_malformed_exact_entries_exit_two(tmp_path, capsys):
    # one config per entry outside the scalar grammar
    for entry in ["1++2*i", "1+*i", "1-+2*i", "2i", "1/+2", "1_000", "\u0661", "1 + 2*i"]:
        config = {"m": 1, "n": 2, "mode": "exact", "points": [{"rows": [[entry, "1"]]}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        for argv in (["angles"], ["verify-design", "--set", "E"]):
            with pytest.raises(SystemExit) as err:
                main(argv + ["--config", str(path)])
            assert err.value.code == 2, (entry, argv)
            assert "not a" in capsys.readouterr().err


def test_deeply_nested_config_exits_two(tmp_path, capsys):
    # the JSON decoder runs out of recursion depth; that is malformed
    # input, not a fault of the program
    depth = 100_000
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth)
    for argv in (["angles"], ["verify-design", "--set", "E"]):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--config", str(path)])
        assert err.value.code == 2
        assert "nested too deeply" in capsys.readouterr().err


def test_readme_names_every_error_code():
    from grassdesign.cli import _ERROR_CODES

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"code\s+`([a-z-]+)`", readme))
    assert documented == set(_ERROR_CODES.values()) | {"internal"}


def test_root_search_limit_exits_three_fast(tmp_path, capsys):
    # seeded integer entries in [-100, 100] give an irrational spectrum,
    # which the integer bisection reports without a candidate search
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
    assert err["error"]["code"] == "irrational-angles"
    assert "float mode" in err["error"]["message"]
    assert elapsed < 2


def test_wide_rational_angle_is_displayed(tmp_path, capsys):
    # one rational angle a^2 / (a^2 + b^2) with a 62-bit denominator
    a, b = 2**30 + 3, 2**31 + 5
    points = [{"rows": [["1", "0"]]}, {"rows": [[str(a), str(b)]]}]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"m": 1, "n": 2, "mode": "exact", "points": points}))
    code, doc = run_json(capsys, "angles", "--config", str(path))
    assert code == 0
    y = f"{a * a}/{a * a + b * b}"
    assert doc["result"]["angles"] == [[["1"], [y]], [[y], ["1"]]]


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


def test_point_limit_exits_three_before_building_points(capsys, monkeypatch):
    def no_point(indices, n):
        raise AssertionError("point built past the point budget")

    monkeypatch.setattr(grassmann, "coordinate_subspace", no_point)
    started = time.perf_counter()
    code = main(["antipodal", "--m", "30", "--n", "60"])
    elapsed = time.perf_counter() - started
    err = json.loads(capsys.readouterr().err)
    assert code == 3
    assert err["error"]["code"] == "point-limit"
    assert str(grassmann.ANTIPODAL_POINT_BUDGET) in err["error"]["message"]
    assert elapsed < 1


HUGE = str(10**2200)


@pytest.mark.parametrize(
    "argv, error",
    [
        # C(2000000, 1000000) has 600,000 digits: counted only until it
        # passes the budget, and never formatted
        (["antipodal", "--m", "1000000", "--n", "2000000"], "point-limit"),
        (["check-nonneg", "--certificate", "E", "--m", "2", "--n", "4", "--depth", HUGE], "grid-limit"),
        (["zonal", "--mu", f"{HUGE},{HUGE}", "--m", "2", "--n", "4"], "shape-limit"),
    ],
    ids=["point-limit", "grid-limit", "shape-limit"],
)
def test_budget_errors_name_inputs_not_huge_counts(argv, error, capsys):
    started = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - started
    err = json.loads(capsys.readouterr().err)
    assert code == 3
    assert err["error"]["code"] == error
    assert elapsed < 1


def test_integers_past_the_digit_limit_are_written(capsys):
    # harmonic dimensions and kernel coefficients at n = 10^3000 pass
    # str()'s 4,300-digit limit; main lifts it while the document is built
    # and written, restores the caller's limit, and every integer parses
    # back to the value the library computes
    n = 10**3000
    mu = Partition([2], m=1)
    limit = sys.get_int_max_str_digits()
    outputs = []
    for argv in (["dims", "--m", "1", "--n", str(n), "--max-weight", "2"], ["zonal", "--mu", "2", "--m", "1", "--n", str(n)]):
        started = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - started
        assert code == 0 and elapsed < 1
        assert sys.get_int_max_str_digits() == limit
        outputs.append(capsys.readouterr().out)
    sys.set_int_max_str_digits(0)
    try:
        dims, kernel = (json.loads(out)["result"] for out in outputs)
        want = zonal.zonal_kernel(mu, n)
        assert [row["dim"] for row in dims["table"]] == [zonal.harmonic_dim(Partition([k], m=1), n) for k in range(3)]
        assert len(str(dims["table"][2]["dim"])) > 4300
        assert kernel["dim"] == want.dim
        assert [Fraction(t["coeff"]) for t in kernel["terms"]] == [c for _, c in kernel_expansion(want).terms()]
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("command", ["dims", "zonal", "verify-design", "json-integer", "test-set"])
def test_input_integer_past_the_digit_limit_is_a_usage_error(command, tmp_path, capsys):
    # the message names the argument or the config entry and the limit,
    # not the Python call that would lift it
    huge = "1" + "0" * 4400
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"m": 1, "n": 2, "mode": "exact", "points": [{"rows": [[huge, "0"]]}]}))
    literal = tmp_path / "literal.json"
    literal.write_text('{"m": 1, "n": 2, "mode": "float", "points": [{"rows": [[[0, 1], [' + huge + ", 0]]]}]}")
    argv, name = {
        "dims": (["dims", "--m", "1", "--n", huge], "argument --n"),
        "zonal": (["zonal", "--mu", huge, "--m", "1", "--n", "2"], "argument --mu"),
        "verify-design": (["verify-design", "--config", str(path), "--set", "E"], f"{path}: entry points[0].rows[0][0]"),
        "json-integer": (["verify-design", "--config", str(literal), "--set", "E"], f"{literal}: entry points[0].rows[0][1][0]"),
        "test-set": (["antipodal", "--m", "1", "--n", "2", "--verify", "T" + huge], "argument --verify"),
    }[command]
    limit = sys.get_int_max_str_digits()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: {name}: integer of 4401 digits is past the limit of 4300 digits\n")
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("caller", [0, 5000])
def test_caller_digit_limit_is_restored(caller, capsys):
    # inputs are read under the default limit whatever the caller's is
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(caller)
    try:
        assert main(["zonal", "--mu", "2", "--m", "1", "--n", str(10**3000)]) == 0
        assert sys.get_int_max_str_digits() == caller
        with pytest.raises(SystemExit) as exc:
            main(["dims", "--m", "1", "--n", "1" + "0" * 4400, "--max-weight", "0"])
        assert exc.value.code == 2
        assert sys.get_int_max_str_digits() == caller
    finally:
        sys.set_int_max_str_digits(limit)
    capsys.readouterr()


def test_largest_antipodal_set_is_inside_the_point_budget():
    assert grassmann.ANTIPODAL_POINT_BUDGET == math.comb(16, 8)
    with pytest.raises(grassmann.PointLimitError):
        great_antipodal(8, 17)


@pytest.mark.parametrize(
    "argv",
    [
        ["zonal", "--mu", "99999999999999999999", "--m", "1", "--n", "2"],
        ["dims", "--m", "2", "--n", "4", "--max-weight", "100000000"],
        ["verify-design", "--config", "CONFIG", "--set", "T100000000"],
    ],
)
def test_shape_limit_exits_three_fast(argv, tmp_path, capsys):
    path = tmp_path / "point.json"
    point = {"m": 1, "n": 2, "mode": "exact", "points": [{"rows": [["1", "0"]]}]}
    path.write_text(json.dumps(point))
    started = time.perf_counter()
    code = main([str(path) if a == "CONFIG" else a for a in argv])
    elapsed = time.perf_counter() - started
    err = json.loads(capsys.readouterr().err)
    assert code == 3
    assert err["error"]["code"] == "shape-limit"
    assert str(SHAPE_BUDGET) in err["error"]["message"]
    assert elapsed < 2


def test_zonal_command_makes_no_fraction(monkeypatch, capsys):
    # the kernel is built and written from its integer numerators over one
    # denominator; zonal imports no Fraction, and a rational in zonal
    # would raise
    def refuse(*args):
        raise AssertionError("zonal made a Fraction")

    for cached in (zonal.zonal_kernel, zonal.harmonic_dim):
        cached.cache_clear()
    assert not hasattr(zonal, "Fraction")
    monkeypatch.setattr(zonal, "rational", refuse)
    code, doc = run_json(capsys, "zonal", "--mu", "3,2,1,1", "--m", "4", "--n", "10")
    monkeypatch.undo()
    kernel = zonal.zonal_kernel(Partition([3, 2, 1, 1]), 10)
    assert code == 0
    assert [t["coeff"] for t in doc["result"]["terms"]] == [str(c) for _, c in kernel_expansion(kernel).terms()]


def test_long_row_stays_under_the_shape_budget(capsys):
    code, doc = run_json(capsys, "zonal", "--mu", "600", "--m", "1", "--n", "2")
    assert code == 0
    assert len(doc["result"]["terms"]) == 601


def test_short_shape_at_the_rank_budget_builds_fast(capsys):
    # three 3 x 3 minors per term: the cost of a kernel follows l(mu), not m
    for cached in (zonal.zonal_kernel, zonal.harmonic_dim, symfunc.schur_norm):
        cached.cache_clear()
    started = time.perf_counter()
    code, doc = run_json(capsys, "zonal", "--mu", "3,3,2", "--m", str(RANK_BUDGET), "--n", str(2 * RANK_BUDGET))
    assert time.perf_counter() - started < 1
    assert code == 0
    assert len(doc["result"]["terms"]) == 19


def test_rank_six_nonnegativity_grid_is_fast(capsys):
    # 38,760 grid points decided on integer numerators, with no Fraction
    # built per point
    started = time.perf_counter()
    code, doc = run_json(capsys, "check-nonneg", "--certificate", "F", "--m", "6", "--n", "12", "--depth", "14")
    assert time.perf_counter() - started < 0.3
    assert code == 0
    assert doc["result"]["points_checked"] == math.comb(20, 6)
    assert doc["result"]["nonnegative_on_grid"] is True


def test_parser_keeps_no_state_between_calls(capsys):
    argv = ["check-nonneg", "--certificate", "E", "--m", "2", "--n", "4", "--depth", "3",
            "--samples", "2"]
    code, doc = run_json(capsys, "--seed", "3", *argv)
    assert code == 0 and doc["manifest"]["seed"] == 3
    code, doc = run_json(capsys, *argv)
    assert code == 0 and doc["manifest"]["seed"] == doc["manifest"]["params"]["seed"] == 0
    with pytest.raises(SystemExit) as err:
        main(["bound", "--certificate", "bogus", "--m", "2", "--n", "4"])
    assert err.value.code == 2


def test_help_text_is_that_of_a_fresh_parser(capsys):
    # --help prints the command table's help on every call, and it names
    # every command, option and help string of the argparse parser
    want = cli._help_text(None)
    for _ in range(2):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        assert capsys.readouterr().out == want
        main(["dims", "--m", "1", "--n", "2"])
        capsys.readouterr()
    parser = build_parser()
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    names = set(commands.choices)
    assert names == set(cli.COMMANDS)
    for action in parser._actions:
        names.update(action.option_strings)
        names.add(action.help)
    for sub in commands.choices.values():
        for action in sub._actions:
            names.update(action.option_strings)
            names.add(action.help)
    names.update(a.help for a in commands._choices_actions)
    names.discard(None)
    assert [name for name in sorted(names) if name not in want] == []


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_command_help_is_printed_after_the_command(command, capsys):
    for flag in ("-h", "--help", "--he", "-hh"):
        with pytest.raises(SystemExit) as err:
            main([command, "--bogus", flag, "--m", "x"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert out == cli._help_text(command)
        assert out.startswith(f"usage: grassdesign {command} ")


# The argv alphabet of the differential test: every option name of the
# command table and each of its prefixes (ambiguous ones included), the
# command names, values that are good for some options and bad for
# others, negative numbers, and items argparse reads in odd ways.
OPTION_NAMES = sorted({"--help", "--seed"} | {o.name for c in cli.COMMANDS.values() for o in c.options})
SPELLINGS = st.sampled_from(OPTION_NAMES).flatmap(
    lambda name: st.sampled_from([name[:k] for k in range(2, len(name) + 1)])
)
VALUES = st.sampled_from([
    "2", "4", "0", "11", "-4", "+3", " 3", "3.5", "x", "", "-", "-1e3", "-.5", ".5", "1e-8",
    "inf", "nan", "-1", "-0", "E", "F", "one", "bogus", "json", "csv", "2,1", "E+F", "T2",
    "cfg.json", "1_0", "\u0663", "=", "a=b",
])
ODD_ITEMS = st.sampled_from([
    "-h", "--help", "-hh", "-hx", "-h=", "-h=h", "-hh=x", "--help=x", "--he=", "--", "-", "-x",
    "--bogus", "---m", "--m 3", "--=1", "--=", "-=", "--seed=", "--mu=", *cli.COMMANDS, "dimz", "",
])
ITEMS = st.one_of(SPELLINGS, VALUES, ODD_ITEMS, st.tuples(SPELLINGS, VALUES).map("=".join))


def _good_value(option):
    if option.choices is not None:
        return st.sampled_from(sorted(option.choices))
    if option.convert is int:
        return st.integers(-3, 30).map(str)
    if option.convert is cli._tolerance:
        return st.sampled_from(["0", "1e-8", "0.5", "3"])
    return st.sampled_from(["2,1", "E+F", "cfg.json", "-1", "a b"])


@st.composite
def argvs(draw):
    """An argv that is mostly good, then mutated: items inserted, deleted or replaced."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    options = cli.COMMANDS[command].options
    given = [o for o in options if o.required or draw(st.booleans())]
    given += draw(st.lists(st.sampled_from(options), max_size=2))  # repeated options
    argv = draw(st.sampled_from([[], ["--seed", "3"], ["--seed=-7"], ["--se", "11"]])) + [command]
    for option in draw(st.permutations(given)):
        name = option.name[: draw(st.integers(3, len(option.name)))]
        value = draw(_good_value(option))
        argv += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            argv.insert(at, draw(ITEMS))
        elif at < len(argv):
            argv[at : at + 1] = [] if edit == "delete" else [draw(ITEMS)]
    return argv


ORACLE = build_parser()


def _outcome(parse, argv):
    """("args", attributes) for accepted argv, else ("exit", code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return ("args", vars(parse(list(argv))))
        except SystemExit as exc:
            return ("exit", exc.code, out.getvalue(), err.getvalue())


@settings(max_examples=1500, deadline=None)
@given(st.one_of(argvs(), st.lists(ITEMS, max_size=8)))
def test_argv_reader_agrees_with_argparse(argv):
    want = _outcome(ORACLE.parse_args, argv)
    got = _outcome(cli.read_args, argv)
    assert got[:2] == want[:2], (argv, got, want)
    if got[:2] == ("exit", 0):
        assert got[2].startswith("usage: grassdesign") and got[3] == ""
    elif got[0] == "exit":
        assert got[2] == "" and "\ngrassdesign: error: " in got[3]


@pytest.mark.parametrize(
    "argv",
    [
        ["--seed", "-3", "check-nonneg", "--cert=F", "--m", "2", "--n", "4", "--samples", "-4"],
        ["--se=5", "dims", "--ma", "1", "--m=1", "--m", "2", "--n", "3"],
        ["zonal", "--mu", "-.5", "--m", "2", "--n", "4", "--mu==2"],
        ["antipodal", "--verify", "-x y", "--m", "-0", "--n", "\u0663", "--e", "csv"],
    ],
)
def test_argv_reader_examples(argv):
    assert vars(cli.read_args(argv)) == vars(ORACLE.parse_args(argv))


def test_joined_double_dash_is_text():
    # the one argv on which the reader departs from argparse, which drops
    # a joined "--" and stores an empty list, unconverted and unchecked
    argv = ["bound", "--m", "2", "--n", "4", "--certificate=--"]
    assert ORACLE.parse_args(argv).certificate == []
    assert _outcome(cli.read_args, argv)[:2] == ("exit", 2)
    assert cli.read_args(["zonal", "--mu=--", "--m", "2", "--n", "4"]).mu == "--"


def test_cli_imports_no_argument_parser():
    src = Path(grassdesign.__file__).resolve().parents[1]
    code = "import sys, grassdesign.cli; print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_commands_import_no_masked_arrays(tmp_path):
    # a plain np.unique(x) imports numpy.ma on its first call, tens of
    # milliseconds at start-up; no command of these kinds may make one
    points = disguised_points(2, 4, 1)
    exact = tmp_path / "disguised.json"
    exact.write_text(json.dumps(exact_document(points, "disguised")))
    floats = tmp_path / "disguised-float.json"
    floats.write_text(json.dumps(float_document(points, "disguised-float")))
    commands = [
        ["antipodal", "--m", "2", "--n", "4", "--verify", "E+F"],
        ["appendix-b", "--verify", "E+F"],
        *(argv for path in (exact, floats) for argv in (
            ["angles", "--config", str(path)],
            ["verify-design", "--config", str(path), "--set", "E+F"],
        )),
        ["check-nonneg", "--certificate", "F", "--m", "2", "--n", "4", "--depth", "6"],
        ["zonal", "--mu", "2,1", "--m", "2", "--n", "4"],
    ]
    code = (
        "import contextlib, io, sys\n"
        "from grassdesign.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        print(main(argv), file=sys.stderr)\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    src = Path(grassdesign.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # appendix-b's six-point set is no E+F design
    assert proc.stderr.split() == ["0", "1", "0", "0", "0", "0", "0", "0"]


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


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "--m", "2000", "--n", "4000", "--max-weight", "0"],
        ["zonal", "--mu", "1", "--m", "2000", "--n", "4000"],
    ],
)
def test_internal_errors_exit_three_without_traceback(argv):
    # ranks past the budget stop before any enumeration or determinant
    # starts; exit 1 stays a negative verdict
    src = Path(grassdesign.__file__).resolve().parents[1]
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "grassdesign", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - started < 10
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    err = json.loads(proc.stderr)
    assert err["error"]["code"] == "shape-limit"
    assert str(RANK_BUDGET) in err["error"]["message"]


@pytest.mark.parametrize(
    "module, name, exc, argv",
    [
        (grassmann, "great_antipodal", RecursionError("maximum recursion depth exceeded"), []),
        # no input path raises KeyError, so one is a fault, not a usage error
        (designs, "parse_family", KeyError("sigma"), ["--verify", "E"]),
    ],
    ids=["RecursionError", "KeyError"],
)
def test_unexpected_errors_exit_three_as_internal(capsys, monkeypatch, module, name, exc, argv):
    # a fault no error code names exits 3 with the raising frame, not a traceback
    def broken(*args):
        raise exc

    monkeypatch.setattr(module, name, broken)
    code = main(["antipodal", "--m", "2", "--n", "4", *argv])
    captured = capsys.readouterr()
    assert code == 3
    assert "Traceback" not in captured.err and captured.out == ""
    err = json.loads(captured.err)
    assert err["error"]["code"] == "internal"
    message = err["error"]["message"]
    assert message.startswith(f"{type(exc).__name__}: {exc}")
    assert message.endswith("in broken)") and "test_cli.py:" in message


def test_bound_builds_no_fraction_per_kernel_term(capsys):
    # the elimination reads the kernels' integer numerators: a few
    # Fractions per coefficient c_mu, fewer than the kernels have terms.
    # Every Fraction is counted: constructed ones go through __new__, and
    # results of Fraction arithmetic do too, or through _from_coprime_ints
    # on Pythons that have it
    zonal.zonal_kernel.cache_clear()
    built = []
    originals = {name: vars(Fraction)[name] for name in ("__new__", "_from_coprime_ints") if name in vars(Fraction)}

    def spy(original):
        def counted(cls, *args, **kwargs):
            built.append(args)
            return original.__func__(cls, *args, **kwargs)

        return type(original)(counted)

    for name, original in originals.items():
        setattr(Fraction, name, spy(original))
    try:
        code, doc = run_json(capsys, "bound", "--certificate", "F", "--m", "8", "--n", "16")
    finally:
        for name, original in originals.items():
            setattr(Fraction, name, original)
    assert code == 0 and doc["result"]["bound"] == "12870"
    cert = designs.certificate_antipodal(8, 16)
    assert len(built) < sum(len(zonal.zonal_kernel(mu, 16).terms) for mu in cert.coeffs)


def test_check_nonneg_takes_no_determinant_per_point(monkeypatch, capsys):
    argv = ["check-nonneg", "--certificate", "F", "--m", "3", "--n", "7"]
    run(capsys, *argv, "--depth", "1")  # builds the kernels, so only evaluation is counted
    cert = designs.certificate_antipodal(3, 7)
    shapes = {s for mu in cert.coeffs for s in kernel_expansion(zonal.zonal_kernel(mu, 7)).coeffs}
    calls = []
    real_minor = exactlinalg.minor

    def counting_minor(rows, cols):
        calls.append(len(cols))
        return real_minor(rows, cols)

    monkeypatch.setattr(exactlinalg, "minor", counting_minor)
    monkeypatch.setattr(zonal, "minor", counting_minor)
    seen = []
    for depth in ("4", "12"):
        symfunc.schur_e_polynomial.cache_clear()
        calls.clear()
        code, doc = run_json(capsys, *argv, "--depth", depth)
        assert code == 0
        expanded = symfunc.schur_e_polynomial.cache_info().misses
        seen.append((doc["result"]["points_checked"], len(calls), expanded))
    (points4, dets4, expanded4), (points12, dets12, expanded12) = seen
    assert points12 > 10 * points4
    assert dets4 == dets12 <= len(shapes)
    assert 0 < expanded4 == expanded12 <= len(shapes)


def test_irrational_angles_get_exact_defects(tmp_path, capsys):
    # the pair of test_computational_errors_exit_three: its cross angles
    # are (2 +- sqrt 2)/4, yet its defects need only their sum and product
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
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(config))
    code, doc = run_json(capsys, "verify-design", "--config", str(path), "--set", "T2")
    assert code == 1
    exact = doc["result"]["entries"]
    assert [e["defect"] for e in exact] == ["4", "30", "35", "161"]
    path.write_text(json.dumps(dict(config, mode="float")))
    code, doc = run_json(capsys, "verify-design", "--config", str(path), "--set", "T2")
    assert code == 1
    for e, f in zip(exact, doc["result"]["entries"]):
        assert abs(int(e["defect"]) - f["defect"]) <= 1e-13 * 4 * e["dim"]
    path.write_text(json.dumps(config))
    assert main(["angles", "--config", str(path)]) == 3
    assert json.loads(capsys.readouterr().err)["error"]["code"] == "irrational-angles"


def _verify_both_modes(capsys, tmp_path, points, spec):
    """Exit code, result and stderr of verify-design --set spec on the exact points and their float copy."""
    out = []
    for document in (exact_document, float_document):
        path = tmp_path / f"{document.__name__}.json"
        path.write_text(json.dumps(document(points, "rank one")))
        code = main(["verify-design", "--config", str(path), "--set", spec])
        captured = capsys.readouterr()
        out.append((code, json.loads(captured.out)["result"] if captured.out else None, captured.err))
    return out


def test_rank_one_float_copy_at_T400_answers_as_the_exact_copy(capsys, tmp_path):
    # the float table follows the Jacobi recurrence, so no entry of it
    # leaves the float range here, and each pass flag is the exact one
    points = [dense_point(1, 3, s) for s in range(4)]
    (code, exact, _), (float_code, approx, _) = _verify_both_modes(capsys, tmp_path, points, "T400")
    assert code == float_code == 1
    assert [e["pass"] for e in approx["entries"]] == [e["pass"] for e in exact["entries"]]


def test_float_sum_past_the_float_range_exits_three(capsys, tmp_path):
    # rank 1 in C^300: the dimension of the shape (k) passes 1e308 at k = 226
    one = (Fraction(1), Fraction(0))
    points = [[[one if j == i else (Fraction(0), Fraction(0)) for j in range(300)]] for i in range(2)]
    (code, _, _), (float_code, result, err) = _verify_both_modes(capsys, tmp_path, points, "T230")
    assert code == 1
    assert float_code == 3 and result is None
    error = json.loads(err)["error"]
    assert error == {"code": "float-range", "message": "the float kernel sum for [226] is not a finite float; use exact entries"}


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_T_sets_build_no_kernel_and_no_schur_polynomial(monkeypatch, capsys, tmp_path, mode):
    def refused(*args):
        raise AssertionError("the design path built a kernel or a Schur polynomial")

    for module, name in ((zonal, "zonal_kernel"), (designs, "zonal_kernel"), (symfunc, "schur_e_polynomial")):
        monkeypatch.setattr(module, name, refused)
    document = exact_document if mode == "exact" else float_document
    path = tmp_path / "disguised.json"
    path.write_text(json.dumps(document(disguised_points(2, 4, 1), "disguised")))
    code, doc = run_json(capsys, "verify-design", "--config", str(path), "--set", "T6")
    assert code == 1 and doc["result"]["mode"] == mode
