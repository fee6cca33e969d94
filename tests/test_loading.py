"""The load pass of configuration files against point-by-point construction."""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grassdesign import grassmann
from grassdesign.cli import main
from grassdesign.grassmann import (
    EXACT,
    FLOAT,
    RANK_TOL,
    RankDeficiencyError,
    SubspaceConfiguration,
    SubspacePoint,
    _as_complex_entry,
)
from grassdesign.scalars import ExactComplex

from exact_oracles import exact_basis, per_entry_point
from seeded_configs import disguised_points, exact_document, float_document

SMALL = st.integers(-4, 4)
PADDING = st.sampled_from(["", " ", "\t", "  \n"])


@st.composite
def exact_texts(draw):
    """An exact entry string, whitespace-padded: rational, Gaussian or pure imaginary."""
    p, r = draw(SMALL), draw(st.integers(0, 4))
    q, t = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    text = draw(st.sampled_from([
        f"{p}/{q}",
        f"{p}",
        f"{p}/{q}+{r}/{t}*i",
        f"{p}-{r}*i",
        f"{p}+i",
        f"-{r}/{t}*i",
        "i",
        "-i",
    ]))
    return draw(PADDING) + text + draw(PADDING)


EXACT_ENTRIES = st.one_of(SMALL, exact_texts())
NUMBERS = st.one_of(SMALL, st.floats(-4, 4, allow_nan=False))
PAIRS = st.lists(NUMBERS, min_size=2, max_size=2)
MIXED_FLOAT_ENTRIES = st.one_of(NUMBERS, PAIRS, exact_texts())


@st.composite
def documents(draw, mode, entries):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(2 * m, 2 * m + 2))
    k = draw(st.integers(1, 4))
    points = [
        {"rows": [[draw(entries) for _ in range(n)] for _ in range(m)]} for _ in range(k)
    ]
    # through JSON text, as a file would be read
    return json.loads(json.dumps({"m": m, "n": n, "mode": mode, "points": points}))


def per_point_frame(rows):
    """The orthonormal frame of one float basis, entry by entry and one SVD of its own."""
    arr = np.array([[_as_complex_entry(v) for v in row] for row in rows], dtype=complex)
    u, s, _ = np.linalg.svd(arr.T, full_matrices=False)
    return arr, (u if s[-1] > RANK_TOL * s[0] else None)


@settings(max_examples=60, deadline=None)
@given(doc=st.one_of(documents(FLOAT, PAIRS), documents(FLOAT, MIXED_FLOAT_ENTRIES)))
def test_float_load_matches_point_by_point(doc):
    oracle = [per_point_frame(p["rows"]) for p in doc["points"]]
    if any(frame is None for _, frame in oracle):
        with pytest.raises(RankDeficiencyError):
            SubspaceConfiguration.from_json(doc)
        return
    config = SubspaceConfiguration.from_json(doc)
    for point, (basis, frame), p in zip(config, oracle, doc["points"]):
        alone = SubspacePoint(p["rows"], mode=FLOAT)
        # bit for bit: same decode, same LAPACK call per matrix
        assert point.basis.tobytes() == basis.tobytes() == alone.basis.tobytes()
        assert point.frame.tobytes() == frame.tobytes() == alone.frame.tobytes()
        assert not point.basis.flags.writeable and not point.frame.flags.writeable


@settings(max_examples=60, deadline=None)
@given(doc=documents(EXACT, EXACT_ENTRIES))
def test_exact_load_matches_per_entry_route(doc):
    oracle = [per_entry_point(p["rows"]) for p in doc["points"]]
    if any(not o["inv_den"] for o in oracle):
        with pytest.raises(RankDeficiencyError):
            SubspaceConfiguration.from_json(doc)
        return
    config = SubspaceConfiguration.from_json(doc)
    for point, want in zip(config, oracle):
        assert point.rows == want["rows"]
        assert (point.inv_num, point.inv_den) == (want["inv_num"], want["inv_den"])
        assert point.basis is None and exact_basis(point) == want["basis"]
        assert point.to_json() == want["to_json"]


BIG = 10**400


@settings(max_examples=200, deadline=None)
@given(
    re=st.tuples(st.integers(-BIG, BIG), st.integers(1, BIG)),
    im=st.tuples(st.integers(0, BIG), st.integers(1, BIG)),
    sign=st.sampled_from("+-"),
)
def test_float_text_entry_is_the_correctly_rounded_value(re, im, sign):
    # each part rounded once from its exact value, as float(Fraction) rounds
    text = f"{re[0]}/{re[1]}{sign}{im[0]}/{im[1]}*i"
    try:
        want = complex(float(Fraction(*re)), float(Fraction(*im) if sign == "+" else -Fraction(*im)))
    except OverflowError:
        with pytest.raises(ValueError, match="too large for a float"):
            _as_complex_entry(text)
        return
    assert repr(_as_complex_entry(text)) == repr(want)


def test_float_copy_of_an_entry_past_the_float_range_is_a_value_error():
    # the float load path's message, naming the exact entry by its text
    huge = "1" + "0" * 400
    with pytest.raises(ValueError, match=f"^float matrix entry too large for a float: '{huge}'$"):
        SubspacePoint([[huge, "0", "0"]]).to_float()
    config = SubspaceConfiguration([SubspacePoint([["1", "0", "0"]]), SubspacePoint([["0", f"1/3-{huge}*i", "0"]])])
    with pytest.raises(ValueError, match=f"^float matrix entry too large for a float: '1/3-{huge}\\*i'$"):
        config.to_float()


def test_float_load_parses_no_exact_complex(monkeypatch):
    def no_parse(s):
        raise AssertionError("an ExactComplex was parsed")

    doc = json.loads(json.dumps(exact_document(disguised_points(2, 5, 4), "texts")))
    monkeypatch.setattr(ExactComplex, "from_str", staticmethod(no_parse))
    config = SubspaceConfiguration.from_json(dict(doc, mode=FLOAT))
    assert config.is_antipodal()


def test_float_load_makes_one_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    doc = json.loads(json.dumps(float_document(disguised_points(2, 5, 4), "float")))
    monkeypatch.setattr(np.linalg, "svd", counted)
    config = SubspaceConfiguration.from_json(doc)
    assert len(config) == 10
    assert calls == [(10, 5, 2)]


def test_exact_load_parses_no_exact_complex(monkeypatch):
    def no_parse(s):
        raise AssertionError("an ExactComplex was parsed")

    doc = json.loads(json.dumps(exact_document(disguised_points(2, 5, 4), "exact")))
    monkeypatch.setattr(ExactComplex, "from_str", staticmethod(no_parse))
    config = SubspaceConfiguration.from_json(doc)
    assert config.is_antipodal()
    assert all(p.basis is None for p in config)


def test_coordinate_points_take_integer_rows():
    point = grassmann.coordinate_subspace([0, 2], 4)
    assert point.rows == [[(1, 0), (0, 0), (0, 0), (0, 0)], [(0, 0), (0, 0), (1, 0), (0, 0)]]
    assert point.scales == [1, 1]
    assert exact_basis(point) == per_entry_point([["1", "0", "0", "0"], ["0", "0", "1", "0"]])["basis"]
    with pytest.raises(ValueError, match="bad shape"):
        grassmann.coordinate_subspace([], 4)


def counted_adjugates(monkeypatch) -> list:
    """The row lists that exact points pass to ``gram_adjugate`` after this call."""
    calls = []
    adjugate = grassmann.gram_adjugate
    monkeypatch.setattr(grassmann, "gram_adjugate", lambda rows: calls.append(rows) or adjugate(rows))
    return calls


def test_coordinate_points_run_no_elimination(monkeypatch):
    calls = counted_adjugates(monkeypatch)
    for m, n in ((1, 2), (2, 4), (2, 6), (3, 6), (3, 7), (4, 8)):
        config = grassmann.great_antipodal(m, n)
        assert config.is_antipodal()
    assert calls == []
    # the six-point set eliminates only for its two points off the coordinates
    six = grassmann.six_point_config()
    assert calls == [p.rows for p in six.points[4:]]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 9))
def test_coordinate_inverse_is_the_reduced_adjugate(data, n):
    indices = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    point = grassmann.coordinate_subspace(indices, n)
    det, adj = grassmann.gram_adjugate(point.rows)
    g = math.gcd(det, *(x for row in adj for v in row for x in v))
    assert (point.inv_num, point.inv_den) == ([[(re // g, im // g) for re, im in row] for row in adj], det // g)
    assert point.inv_num is grassmann.coordinate_subspace(indices[::-1], n).inv_num


def test_coordinate_indices_are_checked():
    for bad in ([0, 4], [3, -1], [0, 1.0], [0, True], ["1"]):
        with pytest.raises(ValueError, match="coordinate index"):
            grassmann.coordinate_subspace(bad, 4)
    with pytest.raises(RankDeficiencyError, match="basis rank below 2"):
        grassmann.coordinate_subspace([1, 1], 4)
    with pytest.raises(ValueError, match="bad shape"):
        grassmann.coordinate_subspace([0, 0, 1], 2)


def test_exact_paths_build_no_exact_complex(tmp_path, capsys, monkeypatch):
    def no_value(self, *args):
        raise AssertionError("an ExactComplex was built")

    doc = exact_document(disguised_points(2, 5, 4), "exact")
    path = tmp_path / "exact.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(ExactComplex, "__init__", no_value)
    config = SubspaceConfiguration.from_json(json.loads(path.read_text()))
    assert config.to_json() == doc
    assert config.to_float().is_antipodal()
    # a fault inside a command exits 3, so each exit 0 is a full run
    assert main(["verify-design", "--config", str(path), "--set", "E+F"]) == 0
    capsys.readouterr()
    assert main(["angles", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["size"] == 10


# entries i, -i, -1/2*i, 3 and 0 over mixed denominators, some of them
# padded or not in lowest terms, which the written text normalizes
MIXED_TEXTS = {
    "m": 2,
    "n": 4,
    "label": "mixed-texts",
    "points": [
        {"rows": [["i", "-i", "0", "3"], ["1/2", "-1/2*i", "2/3+5/7*i", "0"]]},
        {"rows": [[" +3 ", "4/8", "-3/4-i", "0"], ["0", "1-i", "0", "-1/6*i"]]},
        {"rows": [[1, 0, "7/9", "-2/15*i"], ["0", "0", "-i", "11/13+1/26*i"]]},
    ],
}
PINNED_CONFIGS = {
    "six-point": grassmann.six_point_config,
    "great-antipodal-3-6": lambda: grassmann.great_antipodal(3, 6),
    "orthogonal-split-2-6": lambda: grassmann.orthogonal_split_config(2, 6),
    "disguised-3-6": lambda: SubspaceConfiguration.from_json(exact_document(disguised_points(3, 6, 3), "disguised-3-6")),
    "mixed-texts": lambda: SubspaceConfiguration.from_json(MIXED_TEXTS),
}
# SHA-256 of json.dumps(config.to_json(), indent=2) and of the bytes of the
# bases of config.to_float(), as written when exact points also kept a
# basis of Fraction-part Gaussian rationals and converted it entry by entry
PINNED = {
    "six-point": (
        "c830e770b8659674b79b7f16ae340bcfc756f10292ee9fbb8223f662e5567918",
        "df06fbcd7857ce2234d24ad48867fc2633615f488a01097f5f5a03df2a5712d8",
    ),
    "great-antipodal-3-6": (
        "0f83e2d02f9a037703b7c2f9981ecef1a4e22cc981ab402526bae0031f2c5a04",
        "84f2e06a56610b3c60194038d2ea7fc33852f15d05a7387fcc2c14343037b1de",
    ),
    "orthogonal-split-2-6": (
        "14e956273b8baf5f44129f687485eea7a9fda3366f2fd57bbe32de30c7f44c80",
        "035ddb859ebb61c56a9c7052cc1e09c38b71823056e1444f5c823dcc0cfab986",
    ),
    "disguised-3-6": (
        "2e1c1a0576937569d2a491c1c75f98f30ac6238cbdaddac5f115ad89e5380728",
        "f15d371bc67df331f0622381669b033c7f50c37a3fbf108e7d3666e0ade961af",
    ),
    "mixed-texts": (
        "c74666c7d1c02c5e887c75a6f97eae3501d0714009c3cfbbdc5deb68486394b6",
        "a255855b4db702f12ffe06c5fcb690d843dff2454632797d0becb74bc9b93c71",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_exact_text_and_float_copy_are_pinned(name):
    config = PINNED_CONFIGS[name]()
    text, bases = PINNED[name]
    assert hashlib.sha256(json.dumps(config.to_json(), indent=2).encode()).hexdigest() == text
    floats = config.to_float()
    assert hashlib.sha256(b"".join(p.basis.tobytes() for p in floats)).hexdigest() == bases
    # the stacked SVD gives each point the frame that its own SVD gives
    for point, copy in zip(config, floats):
        alone = point.to_float()
        assert copy.basis.tobytes() == alone.basis.tobytes()
        assert copy.frame.tobytes() == alone.frame.tobytes() == SubspacePoint(alone.basis, mode=FLOAT).frame.tobytes()
        assert not copy.basis.flags.writeable and not copy.frame.flags.writeable


def test_float_copy_makes_one_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    config = grassmann.great_antipodal(2, 5)
    monkeypatch.setattr(np.linalg, "svd", counted)
    floats = config.to_float()
    assert calls == [(10, 5, 2)]
    assert floats.to_float().points == floats.points and floats.is_antipodal()
