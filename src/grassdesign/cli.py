"""Command-line interface: machine-readable reports for every verification.

Every subcommand prints one JSON document to stdout of the form
``{"manifest": {...}, "result": {...}}``.  The manifest records the
command, its full parameter set, the seed, the library version and the
wall-clock duration; given identical parameters the ``result`` payload is
byte-identical across runs in exact mode.  Exit codes: 0 success or
verified, 1 verification failed, 2 usage error, 3 computational error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

from . import __version__, designs, grassmann, zonal
from .exactlinalg import RootSearchLimitError
from .grassmann import (
    IrrationalAnglesError,
    RankDeficiencyError,
    SubspaceConfiguration,
    angles_to_json,
)
from .partitions import Partition
from .scalars import rational_to_str
from .zonal import PoleError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_COMPUTE = 3

_ERROR_CODES = {
    IrrationalAnglesError: "irrational-angles",
    PoleError: "pole",
    RankDeficiencyError: "rank-deficient",
    RootSearchLimitError: "root-search-limit",
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


def _parse_mu(text: str, m: int) -> Partition:
    parts = [int(v) for v in text.split(",") if v.strip() != ""]
    return Partition(parts, m=m)


def _load_config(path: str) -> SubspaceConfiguration:
    with open(path, "r", encoding="utf-8") as fh:
        return SubspaceConfiguration.from_json(json.load(fh))


def _emit(args, manifest: dict, result: dict, csv_rows=None) -> None:
    if getattr(args, "emit", "json") == "csv" and csv_rows is not None:
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in csv_rows:
            writer.writerow(row)
        sys.stdout.write(buf.getvalue())
        return
    doc = {"manifest": manifest, "result": result}
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    params = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("fn", "command") and v is not None
    }
    started = time.perf_counter()
    try:
        code, result, csv_rows = args.fn(args)
    except tuple(_ERROR_CODES) as exc:
        err = {"error": {"code": _ERROR_CODES[type(exc)], "message": str(exc)}}
        json.dump(err, sys.stderr, indent=2)
        sys.stderr.write("\n")
        return EXIT_COMPUTE
    except (ValueError, OSError, KeyError) as exc:
        parser.exit(EXIT_USAGE, f"error: {exc}\n")
    manifest = {
        "command": args.command,
        "params": params,
        "seed": args.seed,
        "version": __version__,
        "duration_s": round(time.perf_counter() - started, 6),
    }
    _emit(args, manifest, result, csv_rows)
    return code


def main_entry() -> None:
    sys.exit(main())
