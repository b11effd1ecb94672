"""Command-line front end: JSON bundle specs in, exact rational reports out.

All arithmetic happens in the core modules, which also bound their own work;
this layer parses, dispatches and renders, and bounds only its own input.
Each subcommand is declared once, in the command table
``_COMMANDS``: its help, its options, the function computing its result and
its text layout.  A request in plain form (the command's words, then each
option at most once as ``--flag value``) is read straight from the table;
any other argv, ``--help`` included, goes to an argparse tree built from the
same table on first use, so a plain request never imports argparse.  Both
readers only split argv and report missing options; each value is then
converted and checked by its option's parser, in the command's option order.
Rationals travel as reduced "num/den" strings ("/1" omitted) so downstream
tools never coerce them to floats.  Exit codes: 0 success, 1 invalid input,
2 internal invariant violation (oracle mismatch).
"""

from __future__ import annotations

import functools
import json
import re
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Sequence, TextIO

from .cones import (NU_LIMIT, FlagType, NSClassFlag, NSClassGr, flag_nef_cone,
                    grassmann_nef_cone, is_ample_gr, is_nef_flag, is_nef_gr)
from .corpus import iter_hn_types
from .errors import FlagnefError, LimitExceededError, ParseError, ValidationError
from .hn import CHAR_ZERO, DIGIT_LIMIT, FieldContext, HNType, hn_from_splitting_type, make_hn_type
from .positivity import PositivityClass
from .theta import enumerate_va, theta, theta_oracle

if TYPE_CHECKING:
    import argparse

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[1-9][0-9]*)?")
_INT_RE = re.compile(r"[+-]?[0-9]+")

_CORPUS = {"max_rank": 6, "max_abs_degree": 4}
_encode = json.JSONEncoder(separators=(",", ":")).encode  # one encoder for every JSON report

READ_LIMIT = 2**20  # bytes of one @file argument


def _parse_rational(value: Any, where: str) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL_RE.fullmatch(value):
        num, _, den = value.partition("/")
        try:
            return Fraction(int(num), int(den or 1))
        except ValueError:  # beyond the int/str conversion limit
            pass
    raise ParseError(f"{where}: expected an integer or 'num/den' string, got {value!r}")


def _int_arg(text: str) -> int | None:
    """An integer option value: ASCII digits with an optional sign, and
    surrounding whitespace; None for any other text.  ``int()`` alone would
    also take "1_0" and non-ASCII digits."""
    if _INT_RE.fullmatch(text.strip()):
        try:
            return int(text)
        except ValueError:  # beyond the int/str conversion limit
            pass
    return None


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
    """Inline text, or the contents of a UTF-8 file of at most READ_LIMIT
    bytes given as @path."""
    if not value.startswith("@"):
        return value
    path = value[1:]
    try:
        with open(path, "rb") as fh:
            data = fh.read(READ_LIMIT + 1)
        if len(data) > READ_LIMIT:
            raise LimitExceededError(f"{path} has more than {READ_LIMIT} bytes")
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")  # newlines as a text-mode read


def _plain_int(value: Any, where: str) -> int:
    if type(value) is not int:  # json.loads gives no int subclass but bool
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
        echo: dict = {"pieces": [list(p) for p in h.pieces]}
    else:
        raw = data["splitting"]
        if not isinstance(raw, list):
            raise ParseError("splitting must be a list of integers")
        degrees = [_plain_int(a, "splitting degree") for a in raw]
        h = _validated(hn_from_splitting_type, degrees)
        echo = {"splitting": sorted(degrees, reverse=True)}
    echo["field"] = {"char": ctx.p, "frobenius_steps": ctx.delta} if ctx.is_char_p else {"char": 0}
    return h, ctx, echo


# Option parsers: raw option value -> (attributes for compute, "input" echo).
def _bundle(text: str) -> tuple[dict, dict]:
    h, ctx, echo = _parse_bundle_data(_load_json(_read_arg(text), "bundle spec"))
    return {"h": h, "ctx": ctx}, echo


def _r(text: str) -> tuple[dict, int]:
    r = _int_arg(text)
    if r is None:
        raise ParseError(f"argument --r: invalid int value: {text!r}")
    return {"r": r}, r


def _flag(text: str) -> tuple[dict, list]:
    parts = text.split(",")
    if len(parts) > NU_LIMIT:  # checked before any part is converted
        raise LimitExceededError(f"--flag has more than {NU_LIMIT} quotient dimensions")
    dims = tuple(map(_int_arg, parts))
    if None in dims:
        raise ParseError(f"--flag expects comma-separated integers, got {text!r}")
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
    "input"), its parser, the one place its raw value is converted, and its
    argparse keywords, which the plain reader follows too: ``dest`` and
    ``required``."""

    flag: str
    parse: Callable[[Any], tuple[dict, Any]]
    spec: dict


_BUNDLE_HELP = "bundle spec: inline JSON or @file"
_BUNDLE = _Option("--bundle", _bundle, {"required": True, "help": _BUNDLE_HELP})
_R = _Option("--r", _r, {"required": True, "help": "quotient dimension"})
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
    return "".join(f"{k.ljust(width)}  {_text(v)}\n" for k, v in result.items())


class _Names(dict):
    """Integers to their text, each converted once: compositions repeat few values."""

    def __missing__(self, key: int) -> str:
        self[key] = text = str(key)
        return text


def _va_table(result: dict) -> str:
    name = _Names().__getitem__
    va = result["va"]
    comps = ["composition"] + [_ray_str(e["composition"], name) for e in va]
    ranks = ["rank"] + [str(e["rank"]) for e in va]
    degrees = ["degree"] + [str(e["degree"]) for e in va]
    sums = ["slope_sum"] + [e["slope_sum"] for e in va]
    w0, w1, w2 = max(map(len, comps)), max(map(len, ranks)), max(map(len, degrees))
    return "".join([f"{c.ljust(w0)}  {k.ljust(w1)}  {d.ljust(w2)}  {s}\n"
                    for c, k, d, s in zip(comps, ranks, degrees, sums)])


class _Command(NamedTuple):
    help: str
    options: tuple[_Option, ...]  # in the order of the report's "input"
    compute: Callable[[SimpleNamespace], dict]
    layout: Callable[[dict], str]
    dests: dict[str, str]  # flag -> argparse dest, in option order
    required: tuple[str, ...]  # the required flags


# The command table, keyed by the report's "command".  Compute functions
# receive the parsed options as attributes (a bundle as ``h`` and ``ctx``),
# plus ``input``, the echo so far, and ``stderr``.
_COMMANDS: dict[str, _Command] = {}
_GROUP_HELP = {"cone": "nef cone extremal rays", "member": "nef / ample membership of a class"}


def _command(name: str, help: str, *options: _Option, layout: Callable[[dict], str] = _aligned):
    """Declare subcommand ``name``; the decorated function is its compute."""
    def declare(compute: Callable[[SimpleNamespace], dict]) -> Callable:
        dests = {opt.flag: opt.spec.get("dest", opt.flag[2:]) for opt in options}
        required = tuple(opt.flag for opt in options if opt.spec.get("required"))
        _COMMANDS[name] = _Command(help, options, compute, layout, dests, required)
        return compute
    return declare


@_command("theta", "threshold invariant with full breakdown", _BUNDLE, _R)
def _theta(a: SimpleNamespace) -> dict:
    bd = theta(a.h, a.r)
    return {"theta": str(bd.theta), "t": bd.t, "s": bd.s, "mu_t": str(bd.mu_t),
            "tail_rank": bd.tail_rank, "tail_degree": bd.tail_degree}


@_command("classify", "positivity of the tautological line bundle", _BUNDLE, _R,
          layout=lambda result: result["class"] + "\n")
def _classify(a: SimpleNamespace) -> dict:
    value = theta(a.h, a.r).theta
    return {"class": PositivityClass.of(value).value, "theta": str(value)}


@_command("cone gr", "Grassmann bundle", _BUNDLE, _R)
def _cone_gr(a: SimpleNamespace) -> dict:
    cone = grassmann_nef_cone(a.h, a.r, a.ctx)
    rays = [[cone.fiber_ray.u, cone.fiber_ray.v], [cone.theta_ray.u, cone.theta_ray.v]]
    return {"rays": rays, "theta": str(cone.theta_used), "p_delta": cone.p_delta}


@_command("cone flag", "flag bundle", _BUNDLE, _FLAG)
def _cone_flag(a: SimpleNamespace) -> dict:
    cone = flag_nef_cone(a.h, a.flag, a.ctx)
    thetas = [str(t) for t in cone.thetas_used]
    return {"rays": [list(ray) for ray in cone.rays], "thetas": thetas, "p_delta": cone.p_delta}


@_command("member gr", "Grassmann bundle", _BUNDLE, _R, _CLASS_GR)
def _member_gr(a: SimpleNamespace) -> dict:
    cone = grassmann_nef_cone(a.h, a.r, a.ctx)
    return {"nef": is_nef_gr(a.ns_class, cone), "ample": is_ample_gr(a.ns_class, cone)}


@_command("member flag", "flag bundle", _BUNDLE, _FLAG, _CLASS_FLAG)
def _member_flag(a: SimpleNamespace) -> dict:
    return {"nef": is_nef_flag(a.ns_class, flag_nef_cone(a.h, a.flag, a.ctx))}


@_command("vabundles", "exterior-power blocks with exact rank and degree", _BUNDLE, _R,
          layout=_va_table)
def _vabundles(a: SimpleNamespace) -> dict:
    blocks = enumerate_va(a.h, a.r)
    va = [{"composition": list(comp), "rank": k, "degree": d, "slope_sum": str(s)}
          for comp, k, d, s in blocks]
    # the least block slope sum is theta: one bisect, not a comparison per block
    return {"count": len(blocks), "min_slope_sum": str(theta(a.h, a.r).theta), "va": va}


@_command("oracle-check", "recompute the invariant by brute force and compare",
          _BUNDLE._replace(spec={"help": _BUNDLE_HELP}),
          _R._replace(spec={"help": "check a single quotient dimension (needs --bundle)"}))
def _oracle_check(a: SimpleNamespace) -> dict:
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
    try:
        if a.bundle is not None and a.r is None and a.h.rank > 1:
            theta_oracle(a.h, a.h.rank - 1)  # build, or refuse, the whole row before any check
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
    except LimitExceededError:  # the kernel names its row; the CLI names its option
        limit = sys.modules[f"{__package__}.theta"].ORACLE_LIMIT  # the limit the kernel applied
        raise LimitExceededError(f"oracle-check would take more than {limit} oracle steps on "
                                 "this bundle; give a smaller --r") from None
    return {"types": n_types, "checks": checks, "mismatches": mismatches, "ok": mismatches == 0}


class _HelpRequested(Exception):
    """--help was given; the single argument is the help text."""


def _plain_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """Read a request in plain form straight from the command table: the
    command's words, then each of its options at most once as ``--flag
    value`` with a value not led by "-", and ``--json`` at most once.  Any
    other argv returns None, for argparse.  Values stay the raw strings; the
    one usage error found here, missing required options, reads as argparse
    writes it."""
    head = argv[:2] if argv and argv[0] in _GROUP_HELP else argv[:1]
    name = " ".join(head)
    if name not in _COMMANDS or " " in head[0]:
        return None
    command = _COMMANDS[name]
    dests = command.dests
    given: dict[str, str] = {}  # flag -> value, in argv order
    as_json = False
    i = len(head)
    while i < len(argv):
        if argv[i] == "--json" and not as_json:
            as_json, i = True, i + 1
        elif (argv[i] in dests and argv[i] not in given and i + 1 < len(argv)
              and not argv[i + 1].startswith("-")):
            given[argv[i]], i = argv[i + 1], i + 2
        else:
            return None
    missing = [flag for flag in command.required if flag not in given]
    if missing:
        raise ParseError(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(name=name, json=as_json,
                           **{dest: given.get(flag) for flag, dest in dests.items()})


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of the command table, built on first use and once
    per process.  Every caller gets the same parser, so none may change it."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse exits with code 2 on usage errors; here all input problems
        # are exit 1.  Nor does --help print to sys.stdout and exit:
        # run_command writes the text to its own stdout.
        def error(self, message: str) -> None:
            raise ParseError(message)

        def print_help(self, file: TextIO | None = None) -> None:
            raise _HelpRequested(self.format_help())

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


def render_report(report: dict, mode: str = "text") -> str:
    """Render a report.  JSON mode is a compact single document whose bytes
    are stable across runs; text mode is aligned human-readable columns."""
    if mode == "json":
        return _encode(report) + "\n"
    if mode != "text":
        raise ValueError(f"unknown render mode {mode!r}")
    command = _COMMANDS.get(report["command"])
    if command is None:
        raise ValueError(f"unknown command in report: {report['command']!r}")
    return command.layout(report["result"])


def run_command(argv: Sequence[str], stdout: TextIO | None = None,
                stderr: TextIO | None = None) -> tuple[dict | None, int]:
    """Execute one CLI invocation; writes the rendered report, or the help
    text, to stdout and diagnostics to stderr, and returns (report, exit
    code).  The report is a JSON-serializable dict with keys command, input
    and result, or None after --help and after an error."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        args = _plain_args(argv) or build_parser().parse_args(list(argv), SimpleNamespace())
        command = _COMMANDS[args.name]
        args.input, args.stderr = {}, err
        for opt, dest in zip(command.options, command.dests.values()):
            raw = getattr(args, dest)
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
