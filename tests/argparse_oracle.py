"""The argparse parser the CLI once used, kept as the reference for its argv reader.

``grassdesign.cli.read_args`` reads argv from the module's command
table with no argparse; ``build_parser()`` here is the parser it
replaced, unchanged, so the tests can check that both accept the same
argv, print help for the same argv, reject the same argv, and give the
same attribute names and values.
"""

import argparse
import math

from grassdesign import designs
from grassdesign.cli import (
    CERTIFICATES,
    cmd_angles,
    cmd_antipodal,
    cmd_appendix_b,
    cmd_bound,
    cmd_check_nonneg,
    cmd_dims,
    cmd_verify_design,
    cmd_zonal,
)


def _tolerance(text: str) -> float:
    tol = float(text)
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return tol


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
