"""Command-line front end: JSON bundle specs in, exact rational reports out.

All arithmetic happens in the core modules; this layer parses, dispatches and
renders.  Each subcommand is declared once, in the command table
``_COMMANDS``: its help, its options, the function computing its result and
its text layout.  The argparse tree is built from the table once per process.
Rationals travel as reduced "num/den" strings ("/1" omitted) so downstream
tools never coerce them to floats.  Exit codes: 0 success, 1 invalid input,
2 internal invariant violation (oracle mismatch).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Sequence, TextIO

from .cones import (FlagType, NSClassFlag, NSClassGr, flag_nef_cone, grassmann_nef_cone,
                    is_ample_gr, is_nef_flag, is_nef_gr)
from .corpus import iter_hn_types
from .errors import FlagnefError, LimitExceededError, ParseError, ValidationError
from .hn import CHAR_ZERO, DIGIT_LIMIT, FieldContext, HNType, hn_from_splitting_type, make_hn_type
from .positivity import PositivityClass
from .theta import enumerate_va, theta, theta_oracle

# A Report is a plain JSON-serializable dict with keys command/input/result.
Report = dict

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[1-9][0-9]*)?")
_INT_RE = re.compile(r"[+-]?[0-9]+")

_CORPUS = {"max_rank": 6, "max_abs_degree": 4}


def _parse_rational(value: Any, where: str) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL_RE.fullmatch(value):
        try:
            return Fraction(value)
        except ValueError:  # beyond the int/str conversion limit
            pass
    raise ParseError(f"{where}: expected an integer or 'num/den' string, got {value!r}")


def _int_arg(text: str) -> int:
    """An integer option value: ASCII digits with an optional sign, and
    surrounding whitespace.  ``int()`` alone would also take "1_0" and
    non-ASCII digits."""
    if _INT_RE.fullmatch(text.strip()):
        try:
            return int(text)
        except ValueError:  # beyond the int/str conversion limit
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _load_json(text: str, what: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        where = f"line {exc.lineno} column {exc.colno}"
        raise ParseError(f"{what}: invalid JSON at {where}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{what}: invalid JSON: nested too deeply") from exc
    except ValueError as exc:  # an integer beyond the int/str conversion limit
        raise ParseError(f"{what}: invalid JSON: integer has too many digits") from exc


def _read_arg(value: str) -> str:
    """Inline text, or the contents of a file given as @path."""
    if value.startswith("@"):
        try:
            with open(value[1:], "r", encoding="utf-8") as fh:
                return fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {value[1:]}: {exc}") from exc
    return value


def _plain_int(value: Any, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{where} must be an integer, got {value!r}")
    return value


def _validated(build: Callable[..., Any], *args: Any) -> Any:
    """Call a core constructor; its errors become a ValidationError."""
    try:
        return build(*args)
    except FlagnefError as exc:
        raise ValidationError(f"{exc.code}: {exc}") from exc


def _parse_field(data: Any) -> FieldContext:
    if data is None:
        return CHAR_ZERO
    if not isinstance(data, dict):
        raise ParseError("field must be an object")
    unknown = set(data) - {"char", "frobenius_steps"}
    if unknown:
        raise ParseError(f"field: unknown keys {sorted(unknown)}")
    char = _plain_int(data.get("char", 0), "field.char")
    steps = _plain_int(data.get("frobenius_steps", 0), "field.frobenius_steps")
    if char == 0 and steps != 0:
        raise ParseError("frobenius_steps requires positive characteristic")
    return _validated(FieldContext, char, steps) if char else CHAR_ZERO


def _parse_bundle_data(data: Any) -> tuple[HNType, FieldContext, dict]:
    """Validate a bundle spec dict; returns (type, context, canonical echo)."""
    if not isinstance(data, dict):
        raise ParseError("bundle spec must be a JSON object")
    unknown = set(data) - {"pieces", "splitting", "field"}
    if unknown:
        raise ParseError(f"bundle spec: unknown keys {sorted(unknown)}")
    if ("pieces" in data) == ("splitting" in data):
        raise ParseError("bundle spec needs exactly one of 'pieces' or 'splitting'")
    ctx = _parse_field(data.get("field"))
    if "pieces" in data:
        raw = data["pieces"]
        if not isinstance(raw, list) or not all(isinstance(p, list) and len(p) == 2 for p in raw):
            raise ParseError("pieces must be a list of [rank, degree] pairs")
        pairs = [(_plain_int(p[0], "piece rank"), _plain_int(p[1], "piece degree")) for p in raw]
        h = _validated(make_hn_type, pairs)
        echo: dict = {"pieces": [[p.rank, p.degree] for p in h.pieces]}
    else:
        raw = data["splitting"]
        if not isinstance(raw, list):
            raise ParseError("splitting must be a list of integers")
        degrees = [_plain_int(a, "splitting degree") for a in raw]
        h = _validated(hn_from_splitting_type, degrees)
        echo = {"splitting": sorted(degrees, reverse=True)}
    echo["field"] = {"char": ctx.p, "frobenius_steps": ctx.delta} if ctx.is_char_p else {"char": 0}
    return h, ctx, echo


def parse_bundle_spec(text: str) -> tuple[HNType, FieldContext]:
    """Parse a JSON bundle spec into a validated (HNType, FieldContext) pair."""
    h, ctx, _ = _parse_bundle_data(_load_json(text, "bundle spec"))
    return h, ctx


# Option parsers: raw option value -> (attributes for compute, "input" echo).
def _bundle(text: str) -> tuple[dict, dict]:
    h, ctx, echo = _parse_bundle_data(_load_json(_read_arg(text), "bundle spec"))
    return {"h": h, "ctx": ctx}, echo


def _flag(text: str) -> tuple[dict, list]:
    try:
        dims = tuple(_int_arg(part) for part in text.split(","))
    except argparse.ArgumentTypeError as exc:
        raise ParseError(f"--flag expects comma-separated integers, got {text!r}") from exc
    fl = _validated(FlagType, dims)
    return {"flag": fl}, list(fl.quotient_dims)


def _class_gr(text: str) -> tuple[dict, dict]:
    data = _load_json(_read_arg(text), "class")
    if not isinstance(data, dict) or set(data) != {"x", "y"}:
        raise ParseError('a Grassmann class is an object {"x": ..., "y": ...}')
    c = NSClassGr(_parse_rational(data["x"], "class.x"), _parse_rational(data["y"], "class.y"))
    return {"ns_class": c}, {"x": str(c.x), "y": str(c.y)}


def _class_flag(text: str) -> tuple[dict, dict]:
    data = _load_json(_read_arg(text), "class")
    if not isinstance(data, dict) or set(data) != {"x", "y"}:
        raise ParseError('a flag class is an object {"x": [...], "y": ...}')
    if not isinstance(data["x"], list):
        raise ParseError("class.x must be a list")
    xs = tuple(_parse_rational(v, f"class.x[{i}]") for i, v in enumerate(data["x"]))
    c = NSClassFlag(xs, _parse_rational(data["y"], "class.y"))
    return {"ns_class": c}, {"x": [str(v) for v in c.x], "y": str(c.y)}


class _Option(NamedTuple):
    """One option: its flag (whose name is also its key in the report's
    "input"), its parser, and its argparse keywords."""

    flag: str
    parse: Callable[[Any], tuple[dict, Any]]
    spec: dict


_BUNDLE_HELP = "bundle spec: inline JSON or @file"
_BUNDLE = _Option("--bundle", _bundle, {"required": True, "help": _BUNDLE_HELP})
_R = _Option("--r", lambda r: ({}, r),  # argparse has made it an int
             {"type": _int_arg, "required": True, "help": "quotient dimension"})
_FLAG = _Option("--flag", _flag, {"required": True, "help": "quotient dimensions r1,r2,..."})
_CLASS = {"dest": "ns_class", "required": True}
_CLASS_GR = _Option("--class", _class_gr,
                    {**_CLASS, "help": 'class {"x": ..., "y": ...}: inline JSON or @file'})
_CLASS_FLAG = _Option("--class", _class_flag,
                      {**_CLASS, "help": 'class {"x": [...], "y": ...}: inline JSON or @file'})


# Text layouts: result dict -> text.
def _ray_str(coords: Sequence[int], name: Callable[[int], str] = str) -> str:
    return "(" + ",".join(map(name, coords)) + ")"


def _text(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ", ".join(_ray_str(v) if isinstance(v, list) else str(v) for v in value)
    return str(value)


def _aligned(result: dict) -> str:
    """The default layout: one aligned "key  value" line per result field."""
    width = max(len(k) for k in result)
    return "".join(f"{k:<{width}}  {_text(v)}\n" for k, v in result.items())


class _Names(dict):
    """Integers to their text, each converted once: compositions repeat few values."""

    def __missing__(self, key: int) -> str:
        self[key] = text = str(key)
        return text


def _va_table(result: dict) -> str:
    name = _Names().__getitem__
    rows = [("composition", "rank", "degree", "slope_sum")]
    rows += [(_ray_str(e["composition"], name), str(e["rank"]), str(e["degree"]), e["slope_sum"])
             for e in result["va"]]
    w0, w1, w2 = (max(map(len, column)) for column in list(zip(*rows))[:3])
    return "".join([f"{c:<{w0}}  {k:<{w1}}  {d:<{w2}}  {s}\n" for c, k, d, s in rows])


class _Command(NamedTuple):
    help: str
    options: tuple[_Option, ...]  # in the order of the report's "input"
    compute: Callable[[argparse.Namespace], dict]
    layout: Callable[[dict], str]


# The command table, keyed by the report's "command".  Compute functions
# receive the parsed options as attributes (a bundle as ``h`` and ``ctx``),
# plus ``input``, the echo so far, and ``stderr``.
_COMMANDS: dict[str, _Command] = {}
_GROUP_HELP = {"cone": "nef cone extremal rays", "member": "nef / ample membership of a class"}


def _command(name: str, help: str, *options: _Option, layout: Callable[[dict], str] = _aligned):
    """Declare subcommand ``name``; the decorated function is its compute."""
    def declare(compute: Callable[[argparse.Namespace], dict]) -> Callable:
        _COMMANDS[name] = _Command(help, options, compute, layout)
        return compute
    return declare


@_command("theta", "threshold invariant with full breakdown", _BUNDLE, _R)
def _theta(a: argparse.Namespace) -> dict:
    bd = theta(a.h, a.r)
    return {"theta": str(bd.theta), "t": bd.t, "s": bd.s, "mu_t": str(bd.mu_t),
            "tail_rank": bd.tail_rank, "tail_degree": bd.tail_degree}


@_command("classify", "positivity of the tautological line bundle", _BUNDLE, _R,
          layout=lambda result: result["class"] + "\n")
def _classify(a: argparse.Namespace) -> dict:
    value = theta(a.h, a.r).theta
    return {"class": PositivityClass.of(value).value, "theta": str(value)}


@_command("cone gr", "Grassmann bundle", _BUNDLE, _R)
def _cone_gr(a: argparse.Namespace) -> dict:
    cone = grassmann_nef_cone(a.h, a.r, a.ctx)
    rays = [[cone.fiber_ray.u, cone.fiber_ray.v], [cone.theta_ray.u, cone.theta_ray.v]]
    return {"rays": rays, "theta": str(cone.theta_used), "p_delta": cone.p_delta}


@_command("cone flag", "flag bundle", _BUNDLE, _FLAG)
def _cone_flag(a: argparse.Namespace) -> dict:
    cone = flag_nef_cone(a.h, a.flag, a.ctx)
    thetas = [str(t) for t in cone.thetas_used]
    return {"rays": [list(ray) for ray in cone.rays], "thetas": thetas, "p_delta": cone.p_delta}


@_command("member gr", "Grassmann bundle", _BUNDLE, _R, _CLASS_GR)
def _member_gr(a: argparse.Namespace) -> dict:
    cone = grassmann_nef_cone(a.h, a.r, a.ctx)
    return {"nef": is_nef_gr(a.ns_class, cone), "ample": is_ample_gr(a.ns_class, cone)}


@_command("member flag", "flag bundle", _BUNDLE, _FLAG, _CLASS_FLAG)
def _member_flag(a: argparse.Namespace) -> dict:
    return {"nef": is_nef_flag(a.ns_class, flag_nef_cone(a.h, a.flag, a.ctx))}


@_command("vabundles", "exterior-power blocks with exact rank and degree", _BUNDLE, _R,
          layout=_va_table)
def _vabundles(a: argparse.Namespace) -> dict:
    blocks = enumerate_va(a.h, a.r)
    va = [{"composition": list(b.composition), "rank": b.rank, "degree": b.degree,
           "slope_sum": str(b.slope_sum)} for b in blocks]
    # the least block slope sum is theta: one bisect, not a comparison per block
    return {"count": len(blocks), "min_slope_sum": str(theta(a.h, a.r).theta), "va": va}


@_command("oracle-check", "recompute the invariant by brute force and compare",
          _BUNDLE._replace(spec={"help": _BUNDLE_HELP}),
          _R._replace(spec={
              "type": _int_arg, "help": "check a single quotient dimension (needs --bundle)"}))
def _oracle_check(a: argparse.Namespace) -> dict:
    """Without --bundle, sweeps the built-in corpus.  A mismatch is printed
    to stderr and reported as "ok": false, which exits 2."""
    if a.r is not None and a.bundle is None:
        raise ParseError("--r requires --bundle")
    if a.bundle is None:
        types: Any = iter_hn_types(**_CORPUS)
        a.input["corpus"] = dict(_CORPUS)
    else:
        types = [a.h]
    n_types = checks = mismatches = 0
    for h in types:
        n_types += 1
        for r in [a.r] if a.r is not None else range(1, h.rank):
            checks += 1
            closed = theta(h, r).theta
            brute = theta_oracle(h, r)
            if closed != brute:
                mismatches += 1
                pieces = [[p.rank, p.degree] for p in h.pieces]
                print(f"flagnef: oracle mismatch for pieces={pieces} r={r}: "
                      f"closed form {closed} != brute force {brute}", file=a.stderr)
    return {"types": n_types, "checks": checks, "mismatches": mismatches, "ok": mismatches == 0}


class _HelpRequested(Exception):
    """--help was given; the single argument is the help text."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; here all input problems are
    # exit 1.  Nor does --help print to sys.stdout and exit: run_command
    # writes the text to its own stdout.
    def error(self, message: str) -> None:
        raise ParseError(message)

    def print_help(self, file: TextIO | None = None) -> None:
        raise _HelpRequested(self.format_help())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of the command table, built once per process.
    Every caller gets the same parser, so none may change it."""
    parser = _Parser(prog="flagnef", description=(
        "Exact positivity and nef-cone computations for Grassmann and flag "
        "bundles over a curve, from Harder-Narasimhan data."))
    subs = {"": parser.add_subparsers(dest="command", required=True, metavar="command")}
    for name, command in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in subs:
            p_group = subs[""].add_parser(group, help=_GROUP_HELP[group])
            subs[group] = p_group.add_subparsers(dest="target", required=True, metavar="target")
        p = subs[group].add_parser(leaf, help=command.help)
        for opt in command.options:
            p.add_argument(opt.flag, **opt.spec)
        p.add_argument("--json", action="store_true", help="emit the report as one JSON document")
        p.set_defaults(name=name)
    return parser


def render_report(report: Report, mode: str = "text") -> str:
    """Render a report.  JSON mode is a compact single document whose bytes
    are stable across runs; text mode is aligned human-readable columns."""
    if mode == "json":
        return json.dumps(report, separators=(",", ":")) + "\n"
    if mode != "text":
        raise ValueError(f"unknown render mode {mode!r}")
    command = _COMMANDS.get(report["command"])
    if command is None:
        raise ValueError(f"unknown command in report: {report['command']!r}")
    return command.layout(report["result"])


def run_command(argv: Sequence[str], stdout: TextIO | None = None,
                stderr: TextIO | None = None) -> tuple[Report | None, int]:
    """Execute one CLI invocation; writes the rendered report, or the help
    text, to stdout and diagnostics to stderr, and returns (report, exit
    code).  The report is None after --help and after an error."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        args = build_parser().parse_args(list(argv))
        command = _COMMANDS[args.name]
        args.input, args.stderr = {}, err
        for opt in command.options:
            raw = getattr(args, opt.spec.get("dest", opt.flag[2:]))
            if raw is not None:
                attrs, args.input[opt.flag[2:]] = opt.parse(raw)
                vars(args).update(attrs)
        try:
            result = command.compute(args)
            report = {"command": args.name, "input": args.input, "result": result}
            text = render_report(report, "json" if args.json else "text")
        except ValueError as exc:
            if "integer string conversion" not in str(exc):
                raise
            raise LimitExceededError(
                f"a result has more than {DIGIT_LIMIT} digits, too many to print") from None
    except _HelpRequested as exc:
        out.write(exc.args[0])
        return None, 0
    except FlagnefError as exc:
        print(f"flagnef: error[{exc.code}]: {exc}", file=err)
        return None, 1
    out.write(text)
    return report, 2 if result.get("ok") is False else 0


def main(argv: Sequence[str] | None = None) -> int:
    _, code = run_command(sys.argv[1:] if argv is None else argv)
    return code
