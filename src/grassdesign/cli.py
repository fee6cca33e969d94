"""Command-line interface: machine-readable reports for every verification.

Every subcommand prints one JSON document to stdout of the form
``{"manifest": {...}, "result": {...}}``, whose text is exactly
``json.dumps(document, indent=2)`` plus a newline (written by
:func:`_json_text`, which is faster than the stdlib's pure-Python
indenting encoder).  The manifest records the command, its full
parameter set, the seed, the library version and the wall-clock
duration; given identical parameters the ``result`` payload is
byte-identical across runs in exact mode.  Exact integers are written
whole, however many digits they have: Python's limit on int/str
conversion is lifted while the document is built and written, and the
caller's limit is put back after it; inputs are read under the default
limit of 4,300 digits.  Exit codes: 0 success or
verified, 1 verification failed, 2 usage error, 3 computational error.
A computational error prints ``{"error": {"code": ..., "message": ...}}``
to stderr; an exception no code names is reported as ``internal``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from functools import lru_cache
from pathlib import Path

from . import __version__, designs, grassmann, zonal
from .grassmann import (
    IrrationalAnglesError,
    PointLimitError,
    RankDeficiencyError,
    SubspaceConfiguration,
    angles_to_json,
)
from .partitions import Partition, ShapeLimitError
from .scalars import rational_to_str

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_COMPUTE = 3

_ERROR_CODES = {
    IrrationalAnglesError: "irrational-angles",
    RankDeficiencyError: "rank-deficient",
    PointLimitError: "point-limit",
    ShapeLimitError: "shape-limit",
    designs.GridLimitError: "grid-limit",
}

CERTIFICATES = {
    "E": designs.certificate_product,
    "F": designs.certificate_antipodal,
    "one": designs.certificate_average,
}


def _tolerance(text: str) -> float:
    tol = float(text)
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return tol


# main writes exact integers of any size, so it lifts Python's limit on
# int/str conversion while the document is built and written; inputs
# are still read under the default limit of 4,300 digits.
_INPUT_DIGITS = sys.int_info.default_max_str_digits


class _DigitLimit:
    """Python's int/str conversion limit set to ``limit`` (0: none) inside a ``with`` block.

    A class: a ``contextlib.contextmanager`` generator added about 10 us
    to each small command, which enters three of these.
    """

    __slots__ = ("limit", "previous")

    def __init__(self, limit: int):
        self.limit = limit

    def __enter__(self):
        self.previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(self.limit)

    def __exit__(self, *exc):
        sys.set_int_max_str_digits(self.previous)


def _parse_mu(text: str, m: int) -> Partition:
    with _DigitLimit(_INPUT_DIGITS):
        parts = [int(v) for v in text.split(",") if v.strip() != ""]
    return Partition(parts, m=m)


def _load_config(path: str) -> SubspaceConfiguration:
    with _DigitLimit(_INPUT_DIGITS), open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        return SubspaceConfiguration.from_json(data)


_encode_str = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _float_text(x: float) -> str:
    """A float as ``json`` writes it, with NaN and the infinities spelled as JavaScript does."""
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _key_text(key) -> str:
    """A dict key as ``json`` writes it: converted to a string, then encoded."""
    if isinstance(key, str):
        return _encode_str(key)
    if isinstance(key, float):
        return '"' + _float_text(key) + '"'
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return '"' + int.__repr__(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _json_text(value, pad: str = "\n") -> str:
    """Exactly ``json.dumps(value, indent=2)``, built by joining strings.

    ``indent`` turns off the C encoder, and the pure-Python one yields a
    token at a time; this takes the same type tests in the same order and
    returns each container's text whole.  ``pad`` is the newline and
    indentation of the enclosing level.
    """
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        body = ("," + inner).join([_json_text(v, inner) for v in value])
        return "[" + inner + body + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        body = ("," + inner).join([_key_text(k) + ": " + _json_text(v, inner) for k, v in value.items()])
        return "{" + inner + body + pad + "}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _document_text(args, manifest: dict, result: dict, csv_rows=None) -> str:
    if getattr(args, "emit", "json") == "csv" and csv_rows is not None:
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in csv_rows:
            writer.writerow(row)
        return buf.getvalue()
    return _json_text({"manifest": manifest, "result": result}) + "\n"


def _report_rows(report: designs.DesignReport):
    rows = [["mu", "defect", "dim", "pass"]]
    for e in report.entries:
        val = rational_to_str(e.defect) if report.mode == "exact" else repr(float(e.defect))
        rows.append([" ".join(str(p) for p in e.mu.parts), val, e.dim, e.passed])
    return rows


def cmd_zonal(args) -> tuple:
    mu = _parse_mu(args.mu, args.m)
    kernel = zonal.zonal_kernel(mu, args.n)
    return EXIT_OK, kernel.to_json(), None


def cmd_dims(args) -> tuple:
    from .partitions import enumerate_up_to_weight

    rows = [
        {"mu": mu.to_json(), "dim": zonal.harmonic_dim(mu, args.n)}
        for mu in enumerate_up_to_weight(args.m, args.max_weight)
    ]
    csv_rows = [["mu", "dim"]] + [
        [" ".join(str(p) for p in r["mu"]), r["dim"]] for r in rows
    ]
    return EXIT_OK, {"m": args.m, "n": args.n, "table": rows}, csv_rows


def cmd_angles(args) -> tuple:
    config = _load_config(args.config)
    matrix = config.angle_matrix()
    result = {
        "label": config.label,
        "m": config.m,
        "n": config.n,
        "mode": config.mode,
        "size": len(config),
        "angles": [[angles_to_json(y) for y in row] for row in matrix],
    }
    csv_rows = [["i", "j", "angles"]]
    for i, row in enumerate(matrix):
        for j, y in enumerate(row):
            csv_rows.append([i, j, " ".join(str(v) for v in angles_to_json(y))])
    return EXIT_OK, result, csv_rows


def _verify(config: SubspaceConfiguration, family_spec: str, tol: float):
    with _DigitLimit(_INPUT_DIGITS):
        family = designs.parse_family(family_spec, config.m)
    report = designs.is_T_design(config, family, tol=tol)
    code = EXIT_OK if report.design else EXIT_VERIFY_FAILED
    return code, report


def _with_report(config: SubspaceConfiguration, family_spec: str | None, result: dict) -> tuple:
    """Add the defect report of a bundled configuration when one is asked for.

    The bundled configurations are exact, so a design is decided by
    vanishing defects; the report names the default tolerance.
    """
    if not family_spec:
        return EXIT_OK, result, None
    code, report = _verify(config, family_spec, designs.DEFAULT_TOL)
    result["report"] = report.to_json()
    return code, result, _report_rows(report)


def cmd_verify_design(args) -> tuple:
    config = _load_config(args.config)
    code, report = _verify(config, args.set, args.tol)
    return code, report.to_json(), _report_rows(report)


def cmd_bound(args) -> tuple:
    cert = CERTIFICATES[args.certificate](args.m, args.n)
    record = designs.lp_bound(cert)
    result = {
        "certificate": args.certificate,
        "m": args.m,
        "n": args.n,
        "coefficients": cert.to_json()["terms"],
    }
    result.update(record.to_json())
    return EXIT_OK, result, None


def cmd_antipodal(args) -> tuple:
    config = grassmann.great_antipodal(args.m, args.n)
    result = {
        "label": config.label,
        "size": len(config),
        "pairwise_antipodal": config.is_antipodal(),
    }
    return _with_report(config, args.verify, result)


def cmd_appendix_b(args) -> tuple:
    config = grassmann.six_point_config()
    matrix = config.angle_matrix()
    result = {
        "label": config.label,
        "size": len(config),
        "angles": [[angles_to_json(y) for y in row] for row in matrix],
    }
    return _with_report(config, args.verify, result)


def cmd_check_nonneg(args) -> tuple:
    cert = CERTIFICATES[args.certificate](args.m, args.n)
    report = designs.check_nonnegativity(
        cert, grid_depth=args.depth, samples=args.samples, seed=args.seed
    )
    code = EXIT_OK if report.nonnegative_on_grid else EXIT_VERIFY_FAILED
    result = {"certificate": args.certificate, "m": args.m, "n": args.n}
    result.update(report.to_json())
    return code, result, None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grassdesign",
        description="Exact design verification and bounds on complex Grassmannians",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled points (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=False, mn=True, tabular=False):
        if config:
            p.add_argument("--config", required=True, help="configuration JSON file")
        if mn:
            p.add_argument("--m", type=int, required=True)
            p.add_argument("--n", type=int, required=True)
        if tabular:
            p.add_argument("--emit", choices=("json", "csv"), default="json")

    p = sub.add_parser("zonal", help="kernel expansion in the normalized-Schur basis")
    p.add_argument("--mu", required=True, help="comma-separated parts, e.g. 2,1")
    common(p)
    p.set_defaults(fn=cmd_zonal)

    p = sub.add_parser("dims", help="table of harmonic component dimensions")
    p.add_argument("--max-weight", type=int, default=4)
    common(p, tabular=True)
    p.set_defaults(fn=cmd_dims)

    p = sub.add_parser("angles", help="pairwise principal-angle matrix of a configuration")
    common(p, config=True, mn=False, tabular=True)
    p.set_defaults(fn=cmd_angles)

    p = sub.add_parser("verify-design", help="defect report for a configuration file")
    p.add_argument("--set", required=True, help="test set: E, F, E+F or T<t>")
    p.add_argument("--tol", type=_tolerance, default=designs.DEFAULT_TOL)
    common(p, config=True, mn=False, tabular=True)
    p.set_defaults(fn=cmd_verify_design)

    p = sub.add_parser("bound", help="linear-programming cardinality bound of a certificate")
    p.add_argument("--certificate", choices=CERTIFICATES, required=True)
    common(p)
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("antipodal", help="build and optionally verify the coordinate antipodal set")
    p.add_argument("--verify", default=None, help="test set: E, F, E+F or T<t>")
    common(p, tabular=True)
    p.set_defaults(fn=cmd_antipodal)

    p = sub.add_parser("appendix-b", help="bundled six-point configuration in G(2,4)")
    p.add_argument("--verify", default=None, help="test set: E, F, E+F or T<t>")
    common(p, mn=False, tabular=True)
    p.set_defaults(fn=cmd_appendix_b)

    p = sub.add_parser("check-nonneg", help="grid evidence that a certificate is nonnegative")
    p.add_argument("--certificate", choices=CERTIFICATES, required=True)
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--samples", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_check_nonneg)

    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of this process: parsing leaves no state in it, so it is built once."""
    return build_parser()


def _compute_error(code: str, message: str) -> int:
    sys.stderr.write(_json_text({"error": {"code": code, "message": message}}) + "\n")
    return EXIT_COMPUTE


def main(argv=None) -> int:
    parser = _parser()
    with _DigitLimit(_INPUT_DIGITS):
        args = parser.parse_args(argv)
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("fn", "command") and v is not None
    }
    started = time.perf_counter()
    with _DigitLimit(0):
        try:
            code, result, csv_rows = args.fn(args)
            manifest = {
                "command": args.command,
                "params": params,
                "seed": args.seed,
                "version": __version__,
                "duration_s": round(time.perf_counter() - started, 6),
            }
            text = _document_text(args, manifest, result, csv_rows)
        except tuple(_ERROR_CODES) as exc:
            return _compute_error(_ERROR_CODES[type(exc)], str(exc))
        except (ValueError, OSError) as exc:
            parser.exit(EXIT_USAGE, f"error: {exc}\n")
        except Exception as exc:
            # exit 1 is a negative verdict only, so a fault of the program
            # exits 3 like any other computation that did not finish, naming
            # the frame that raised in place of a traceback
            tb = exc.__traceback__
            while tb.tb_next:
                tb = tb.tb_next
            code = tb.tb_frame.f_code
            where = f"{Path(code.co_filename).name}:{tb.tb_lineno} in {code.co_name}"
            return _compute_error("internal", f"{type(exc).__name__}: {exc} ({where})")
        sys.stdout.write(text)
    return code


def main_entry() -> None:
    sys.exit(main())
