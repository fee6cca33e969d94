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
limit of 4,300 digits.

Argv is read by :func:`read_args` from the command table ``COMMANDS``
(each subcommand's handler, help line and options), with no parser
library.  ``--seed N`` goes before the subcommand and every other option
after it, as ``--opt value`` or ``--opt=value``; a long name may be cut
to any prefix no other name of the subcommand shares, an exact name
winning; the last occurrence of an option wins; and a negative number
such as ``-4`` is a value.  ``-h`` or ``--help``, before the subcommand
or after it, prints help built from the table.

Exit codes: 0 success or verified (and help), 1 verification failed,
2 usage error (a bad argv prints ``grassdesign: error: ...`` naming the
argument), 3 computational error.
A computational error prints ``{"error": {"code": ..., "message": ...}}``
to stderr; an exception no code names is reported as ``internal``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
import sys
import time
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

from . import __version__, designs, grassmann, zonal
from .grassmann import (
    IrrationalAnglesError,
    PointLimitError,
    RankDeficiencyError,
    SubspaceConfiguration,
    angles_to_json,
)
from .partitions import Partition, ShapeLimitError, enumerate_up_to_weight
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
    zonal.FloatRangeError: "float-range",
}

CERTIFICATES = {
    "E": designs.certificate_product,
    "F": designs.certificate_antipodal,
    "one": designs.certificate_average,
}


def _tolerance(text: str) -> float:
    tol = float(text)
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"must be a finite number >= 0, got {text!r}")
    return tol


# main writes exact integers of any size, so it lifts Python's limit on
# int/str conversion while the document is built and written; inputs
# are still read under the default limit of 4,300 digits.
_INPUT_DIGITS = sys.int_info.default_max_str_digits
_PAST_LIMIT = re.compile(r"Exceeds the limit \(\d+ digits\) for integer string conversion: value has (\d+) digits")


def _past_limit(exc: ValueError) -> str | None:
    """int()'s error for an input integer of too many digits, reworded to state the limit; None for any other error.

    Python's own text ends by naming ``sys.set_int_max_str_digits()``,
    which a command-line user cannot call.
    """
    past = _PAST_LIMIT.match(str(exc))
    return past and f"integer of {past[1]} digits is past the limit of {_INPUT_DIGITS} digits"


class _DigitLimit:
    """Python's int/str conversion limit set to ``limit`` (0: none) inside a ``with`` block.

    Given the ``name`` of the input read inside the block, an integer of
    too many digits raises a ValueError that names it and the limit.  A
    class: a ``contextlib.contextmanager`` generator added about 10 us
    to each small command, which enters three of these.
    """

    __slots__ = ("limit", "name", "previous")

    def __init__(self, limit: int, name: str | None = None):
        self.limit = limit
        self.name = name

    def __enter__(self):
        self.previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(self.limit)

    def __exit__(self, kind, exc, tb):
        sys.set_int_max_str_digits(self.previous)
        if self.name is not None and kind is ValueError and (reason := _past_limit(exc)):
            raise ValueError(f"{self.name}: {reason}") from None


def _parse_mu(text: str, m: int) -> Partition:
    items = text.split(",")
    if not all(v.strip() for v in items):
        raise ValueError(f"--mu {text!r} has an empty item")
    with _DigitLimit(_INPUT_DIGITS, "argument --mu"):
        parts = [int(v) for v in items]
    return Partition(parts, m=m)


class _Literal(str):
    """The text of a JSON integer literal, read but not converted."""


_ROW_ENTRY = re.compile(r"points\[\d+\]\.rows\[\d+\]\[\d+\]")
_LONG_RUN = re.compile(f"[0-9]{{{_INPUT_DIGITS + 1},}}")


def _long_entry(text: str) -> str | None:
    """The path of the first entry of a configuration's JSON text with more than _INPUT_DIGITS digits in a row.

    Such an entry is an integer literal, which fails the JSON load, or a
    row entry, whose text fails the load pass; None when there is none.
    """
    try:
        data = json.loads(text, parse_int=_Literal)
    except (ValueError, RecursionError):
        return None
    stack = [("", data)]
    while stack:
        path, value = stack.pop()
        if isinstance(value, dict):
            stack += [(f"{path}.{k}" if path else k, v) for k, v in reversed(value.items())]
        elif isinstance(value, list):
            stack += [(f"{path}[{i}]", v) for i, v in reversed(list(enumerate(value)))]
        elif isinstance(value, str) and (isinstance(value, _Literal) or _ROW_ENTRY.fullmatch(path)):
            if _LONG_RUN.search(value):
                return path
    return None


def _load_config(path: str) -> SubspaceConfiguration:
    with _DigitLimit(_INPUT_DIGITS), open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
        try:
            return SubspaceConfiguration.from_json(json.loads(text))
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:
            reason = _past_limit(exc)
            if reason is None:
                raise
            entry = _long_entry(text)
            raise ValueError(f"{path}: {f'entry {entry}: ' if entry else ''}{reason}") from None


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
    token at a time; this returns each container's text whole.  An exact
    dict or list is told by its type, the rest by json's type tests in
    json's order, and a subclass or tuple is written as the dict or list
    it holds.  ``pad`` is the newline and indentation of the enclosing
    level.
    """
    kind = type(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = pad + "  "
        body = ("," + inner).join([_key_text(k) + ": " + _json_text(v, inner) for k, v in value.items()])
        return "{" + inner + body + pad + "}"
    if kind is list:
        if not value:
            return "[]"
        inner = pad + "  "
        if type(value[0]) is int:
            # a list of exact ints (a partition, say) in one pass; a bool
            # is an int too, but writes as true or false
            parts = []
            for v in value:
                if type(v) is not int:
                    break
                parts.append(int.__repr__(v))
            else:
                return "[" + inner + ("," + inner).join(parts) + pad + "]"
        body = ("," + inner).join([_json_text(v, inner) for v in value])
        return "[" + inner + body + pad + "]"
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
        return _json_text(list(value), pad)
    if isinstance(value, dict):
        return _json_text(dict(value.items()), pad)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _document_text(args, manifest: dict, result: dict, csv_rows=None) -> str:
    """The document as JSON, or as CSV under ``--emit csv`` when the command has rows.

    ``csv_rows`` is an iterator that builds each row as the writer takes
    it, so a JSON run never formats one.
    """
    if getattr(args, "emit", "json") == "csv" and csv_rows is not None:
        buf = io.StringIO()
        csv.writer(buf).writerows(csv_rows)
        return buf.getvalue()
    return _json_text({"manifest": manifest, "result": result}) + "\n"


def _report_rows(report: designs.DesignReport):
    yield ["mu", "defect", "dim", "pass"]
    for e in report.entries:
        val = rational_to_str(e.defect) if report.mode == "exact" else repr(float(e.defect))
        yield [" ".join(str(p) for p in e.mu.parts), val, e.dim, e.passed]


def cmd_zonal(args) -> tuple:
    zonal._require_ambient(args.m, args.n)
    mu = _parse_mu(args.mu, args.m)
    kernel = zonal.zonal_kernel(mu, args.n)
    return EXIT_OK, kernel.to_json(), None


def cmd_dims(args) -> tuple:
    zonal._require_ambient(args.m, args.n)
    rows = [
        {"mu": mu.to_json(), "dim": zonal.harmonic_dim(mu, args.n)}
        for mu in enumerate_up_to_weight(args.m, args.max_weight)
    ]
    csv_rows = chain([["mu", "dim"]], ([" ".join(str(p) for p in r["mu"]), r["dim"]] for r in rows))
    return EXIT_OK, {"m": args.m, "n": args.n, "table": rows}, csv_rows


def _angle_rows(config: SubspaceConfiguration) -> list:
    """The angle matrix as JSON rows, each angle vector formatted once.

    The matrix holds one tuple per unordered pair, and exact pair tables
    share one tuple per angle class, so each tuple's text is built once
    and shared by the entries that hold it.
    """
    matrix = config.angle_matrix()
    distinct = {id(y): y for row in matrix for y in row}
    texts = {key: angles_to_json(y) for key, y in distinct.items()}
    return [[texts[id(y)] for y in row] for row in matrix]


def cmd_angles(args) -> tuple:
    config = _load_config(args.config)
    result = {
        "label": config.label,
        "m": config.m,
        "n": config.n,
        "mode": config.mode,
        "size": len(config),
        "angles": _angle_rows(config),
    }
    csv_rows = chain(
        [["i", "j", "angles"]],
        ([i, j, " ".join(str(v) for v in y)] for i, row in enumerate(result["angles"]) for j, y in enumerate(row)),
    )
    return EXIT_OK, result, csv_rows


def _verify(config: SubspaceConfiguration, family_spec: str, tol: float, option: str):
    with _DigitLimit(_INPUT_DIGITS, f"argument {option}"):
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
    code, report = _verify(config, family_spec, designs.DEFAULT_TOL, "--verify")
    result["report"] = report.to_json()
    return code, result, _report_rows(report)


def cmd_verify_design(args) -> tuple:
    config = _load_config(args.config)
    code, report = _verify(config, args.set, args.tol, "--set")
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
    zonal._require_ambient(args.m, args.n)
    config = grassmann.great_antipodal(args.m, args.n)
    result = {
        "label": config.label,
        "size": len(config),
        "pairwise_antipodal": config.is_antipodal(),
    }
    return _with_report(config, args.verify, result)


def cmd_appendix_b(args) -> tuple:
    config = grassmann.six_point_config()
    result = {
        "label": config.label,
        "size": len(config),
        "angles": _angle_rows(config),
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


class _Option:
    """One option of the command table, read into ``args.<dest>``.

    ``convert`` turns the option's text into its value and raises
    ValueError, with the reason, when it cannot; a value outside
    ``choices`` is refused; an option not given keeps ``default`` unless
    it is ``required``.
    """

    __slots__ = ("name", "dest", "help", "convert", "choices", "default", "required")

    def __init__(self, name, help, convert=str, choices=None, default=None, required=False):
        self.name = name
        self.dest = name.lstrip("-").replace("-", "_")
        self.help = help
        self.convert = convert
        self.choices = choices
        self.default = default
        self.required = required

    def spelling(self) -> str:
        """``--name VALUE``, with the choices in braces where there are choices."""
        if self is _HELP:
            return "-h, --help"
        value = "{" + ",".join(self.choices) + "}" if self.choices else self.dest.upper()
        return f"{self.name} {value}"


class _Command:
    """A row of the command table: handler, help line and options.

    ``lookup`` maps every option name, ``-h`` and ``--help`` included,
    to its option.
    """

    __slots__ = ("fn", "help", "options", "lookup")

    def __init__(self, fn, help, options):
        self.fn = fn
        self.help = help
        self.options = options
        self.lookup = {"-h": _HELP, "--help": _HELP, **{o.name: o for o in options}}


_HELP = _Option("--help", "show this help message and exit")
_FAMILY = "test set: E, F, E+F or T<t>"
_M = _Option("--m", "rank m of the subspaces", int, required=True)
_N = _Option("--n", "dimension n of the ambient space", int, required=True)
_EMIT = _Option("--emit", "output format (default json)", choices=("json", "csv"), default="json")
_CONFIG = _Option("--config", "configuration JSON file", required=True)
_VERIFY = _Option("--verify", _FAMILY)
_CERTIFICATE = _Option("--certificate", "certificate to evaluate", choices=CERTIFICATES, required=True)

_SEED = _Option("--seed", "seed for sampled points (default 0)", int, default=0)
_TOP = _Command(None, "Exact design verification and bounds on complex Grassmannians", (_SEED,))
COMMANDS = {
    "zonal": _Command(
        cmd_zonal,
        "kernel expansion in the normalized-Schur basis",
        (_Option("--mu", "comma-separated parts, e.g. 2,1", required=True), _M, _N),
    ),
    "dims": _Command(
        cmd_dims,
        "table of harmonic component dimensions",
        (_Option("--max-weight", "largest weight listed (default 4)", int, default=4), _M, _N, _EMIT),
    ),
    "angles": _Command(
        cmd_angles, "pairwise principal-angle matrix of a configuration", (_CONFIG, _EMIT)
    ),
    "verify-design": _Command(
        cmd_verify_design,
        "defect report for a configuration file",
        (
            _Option("--set", _FAMILY, required=True),
            _Option(
                "--tol",
                f"slack of float-mode verdicts (default {designs.DEFAULT_TOL})",
                _tolerance,
                default=designs.DEFAULT_TOL,
            ),
            _CONFIG,
            _EMIT,
        ),
    ),
    "bound": _Command(
        cmd_bound, "linear-programming cardinality bound of a certificate", (_CERTIFICATE, _M, _N)
    ),
    "antipodal": _Command(
        cmd_antipodal,
        "build and optionally verify the coordinate antipodal set",
        (_VERIFY, _M, _N, _EMIT),
    ),
    "appendix-b": _Command(
        cmd_appendix_b, "bundled six-point configuration in G(2,4)", (_VERIFY, _EMIT)
    ),
    "check-nonneg": _Command(
        cmd_check_nonneg,
        "grid evidence that a certificate is nonnegative",
        (
            _CERTIFICATE,
            _Option("--depth", "depth of the simplex grid (default 20)", int, default=20),
            _Option("--samples", "seeded random points added to the grid (default 0)", int, default=0),
            _M,
            _N,
        ),
    ),
}


def _usage(name: str | None) -> str:
    if name is None:
        return "usage: grassdesign [-h] [--seed SEED] COMMAND [OPTION ...]\n"
    spellings = [
        o.spelling() if o.required else f"[{o.spelling()}]" for o in COMMANDS[name].options
    ]
    return f"usage: grassdesign {name} [-h] {' '.join(spellings)}\n"


def _option_rows(options) -> str:
    return "".join(f"  {o.spelling():<26}{o.help}\n" for o in options)


def _help_text(name: str | None) -> str:
    """``--help`` of the program (``name`` None) or of one command, from the table."""
    command = _TOP if name is None else COMMANDS[name]
    text = f"{_usage(name)}\n{command.help}\n\noptions:\n{_option_rows((_HELP, *command.options))}"
    if name is None:
        text += "\ncommands, each with -h, --help too:\n"
        for key, command in COMMANDS.items():
            text += f"\n{key}: {command.help}\n{_option_rows(command.options)}"
    return text


def _exit_usage(text: str):
    sys.stderr.write(text)
    raise SystemExit(EXIT_USAGE)


def _fail(message: str, name: str | None = None):
    _exit_usage(f"{_usage(name)}grassdesign: error: {message}\n")


# a negative number is read as a value, not as an unknown option
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _token(token: str, lookup: dict, name: str | None):
    """What one argv item is: None for a value, else ``(option, spelling, joined text)``.

    An exact option name wins, then ``--name=text``, then the one long
    name that starts with ``--prefix`` (``--prefix=text`` too) or ``-h``
    with text joined to it.  A negative number or an item with a space
    is a value; any other item that starts with ``-`` is an unknown
    option, whose option is None.
    """
    if token[:1] != "-":
        return None
    if token in lookup:
        return lookup[token], token, None
    if len(token) == 1:
        return None
    prefix, eq, text = token.partition("=")
    if eq and prefix in lookup:
        return lookup[prefix], prefix, text
    if token[1] == "-":
        matches = [key for key in lookup if key.startswith(prefix)]
        if len(matches) > 1:
            _fail(f"ambiguous option: {token} could match {', '.join(matches)}", name)
        if matches:
            return lookup[matches[0]], matches[0], text if eq else None
    elif token[:2] in lookup:
        return lookup[token[:2]], token[:2], token[2:]
    if " " in token or _NEGATIVE_NUMBER.match(token):
        return None
    return None, token, None


def _scan(tokens: list, lookup: dict, name: str | None) -> list:
    """Each item as :func:`_token` reads it, but the first ``--`` is ``"--"`` and every later item a value."""
    kinds = []
    for token in tokens:
        if token == "--":
            kinds.append("--")
            kinds += [None] * (len(tokens) - len(kinds))
            break
        kinds.append(_token(token, lookup, name))
    return kinds


def _take(kind: tuple, tokens: list, kinds: list, i: int, args, name: str | None) -> int:
    """Apply the option at ``tokens[i]``; return the index of the first item it leaves."""
    option, spelling, text = kind
    if option is _HELP:
        # -hh is -h twice; any other text joined to -h or --help is refused
        if text is None or (spelling == "-h" and text and not text.strip("h")):
            sys.stdout.write(_help_text(name))
            raise SystemExit(EXIT_OK)
        ignored = text.lstrip("h") if spelling == "-h" else text
        _fail(f"argument -h/--help: ignored explicit argument {ignored!r}", name)
    stop = i + 1
    if text is None:
        if stop == len(tokens) or kinds[stop] is not None:
            _fail(f"argument {option.name}: expected one argument", name)
        text = tokens[stop]
        stop += 1
    try:
        value = option.convert(text)
    except ValueError as exc:
        _fail(f"argument {option.name}: {_past_limit(exc) or exc}", name)
    if option.choices is not None and value not in option.choices:
        choices = ", ".join(map(repr, option.choices))
        _fail(f"argument {option.name}: invalid choice: {value!r} (choose from {choices})", name)
    setattr(args, option.dest, value)
    return stop


def read_args(argv) -> SimpleNamespace:
    """Read argv by the command table into one attribute per parameter.

    The program's options come first; the first value names the
    command, and every item after it is the command's.  ``--name value``
    and ``--name=value`` both work, a long name may be shortened to any
    prefix no other name shares, and the last occurrence of an option
    wins.  ``--`` and every item after it are values that no option
    takes, so they are refused.  ``-h`` or ``--help`` prints help and
    exits 0; any other fault exits 2 with a message naming the argument.  The result holds ``seed``, ``command``,
    ``fn`` (the command's handler) and one attribute per option of the
    command, its default where it was not given.
    """
    tokens = list(argv)
    kinds = _scan(tokens, _TOP.lookup, None)
    args = SimpleNamespace(seed=_SEED.default)
    unknown = []
    i = 0
    while i < len(tokens) and isinstance(kinds[i], tuple):
        if kinds[i][0] is None:
            unknown.append(tokens[i])
            i += 1
        else:
            i = _take(kinds[i], tokens, kinds, i, args, None)
    if i == len(tokens) or tokens[i:] == ["--"]:
        _fail("the following arguments are required: command")
    name = tokens[i]
    if name not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _fail(f"argument command: invalid choice: {name!r} (choose from {choices})")
    command = COMMANDS[name]
    args.command = name
    for option in command.options:
        setattr(args, option.dest, option.default)
    args.fn = command.fn
    tokens = tokens[i + 1 :]
    kinds = _scan(tokens, command.lookup, name)
    given = set()
    i = 0
    while i < len(tokens):
        if isinstance(kinds[i], tuple) and kinds[i][0] is not None:
            given.add(kinds[i][0])
            i = _take(kinds[i], tokens, kinds, i, args, name)
        else:
            unknown.append(tokens[i])
            i += 1
    missing = [o.name for o in command.options if o.required and o not in given]
    if missing:
        _fail(f"the following arguments are required: {', '.join(missing)}", name)
    if unknown:
        _fail(f"unrecognized arguments: {' '.join(unknown)}")
    return args


def _compute_error(code: str, message: str) -> int:
    sys.stderr.write(_json_text({"error": {"code": code, "message": message}}) + "\n")
    return EXIT_COMPUTE


def main(argv=None) -> int:
    with _DigitLimit(_INPUT_DIGITS):
        args = read_args(sys.argv[1:] if argv is None else argv)
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
            _exit_usage(f"error: {exc}\n")
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
