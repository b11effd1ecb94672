"""The benchmark workloads: seeded inputs, one op each, and its check.

Inputs and reference answers are made without flagnef.  Each op receives
only its generated input and the imported ``flagnef`` package, and calls the
public API through module attributes at call time, so that the tracer's
patches see every call.

A pool is drawn from two random streams.  ``shape`` fixes each op slot's
kind, ranks, piece count and order; it is seeded the same for every pass of
a run.  ``rng`` fills in the degrees and other values; it is seeded anew for
every pass, so that no input repeats between passes (the built-in corpus
aside) while slot i keeps its cost.  Proportions of request kinds and the
spread of ranks are fixed by stratification.
"""

from __future__ import annotations

import io
import json
import math
import sys
from fractions import Fraction

import reference as ref

# --- shared generators -------------------------------------------------------


def _split(rng, n, k):
    """Random composition of n into k positive parts."""
    cuts = sorted(rng.sample(range(1, n), k - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


def _with_degrees(rng, ranks, bottom_slope, step):
    """Pieces with the given ranks and strictly decreasing slopes, built from
    the bottom piece up; each slope exceeds the one below by at most about
    ``step``."""
    k = ranks[-1]
    degrees = [rng.randint(-bottom_slope * k, bottom_slope * k)]
    mu = Fraction(degrees[0], k)
    for k in reversed(ranks[:-1]):
        d = math.floor(k * mu) + 1 + rng.randint(0, k * step)
        degrees.append(d)
        mu = Fraction(d, k)
    degrees.reverse()
    return [[k, d] for k, d in zip(ranks, degrees)]


def _rational(rng, lo, hi):
    if rng.random() < 0.5:
        return rng.randint(lo, hi)
    return f"{rng.randint(lo, hi)}/{rng.randint(1, 6)}"


# --- CLI requests (cli_mix) ------------------------------------------------------

CLI_COMMANDS = ("theta", "classify", "cone gr", "cone flag", "member gr", "member flag",
                "vabundles", "oracle-check")

# Invalid request kinds and the error code each must end in.
INVALID_KINDS = {
    "slopes": "ValidationError",
    "rank0": "ValidationError",
    "char": "ValidationError",
    "flag_order": "ValidationError",
    "flag_rank": "InvalidFlagType",
    "class_dim": "DimensionMismatch",
    "r_range": "QuotientRankOutOfRange",
    "bad_json": "ParseError",
    "unknown_key": "ParseError",
    "both_specs": "ParseError",
    "frob_char0": "ParseError",
    "missing_r": "ParseError",
}


def _cli_bundle(shape, rng, stratum=None):
    """A hand-sized bundle spec: at most 5 pieces and rank at most 20, or a
    splitting type; a quarter of them in characteristic p <= 7, delta <= 3.
    A ``stratum`` number, if given, picks the spec kind and the splitting
    length, so that the heaviest requests (vabundles and oracle-check on
    long splitting types, with r near the middle) come in the same numbers
    for every seed."""
    if (shape.random() < 0.5) if stratum is None else stratum % 2 == 0:
        while True:
            ranks = [shape.randint(1, 4) for _ in range(shape.randint(1, 5))]
            if sum(ranks) >= 2:
                break
        spec = {"pieces": _with_degrees(rng, ranks, 3, 2)}
    else:
        # the multiplicities, and so the pieces, are part of the shape; the
        # degrees are fresh
        length = shape.randint(2, 12) if stratum is None else 2 + (stratum // 2) % 11
        pattern = [shape.randint(-6, 6) for _ in range(length)]
        counts = [pattern.count(d) for d in sorted(set(pattern), reverse=True)]
        degrees = sorted(rng.sample(range(-6, 7), len(counts)), reverse=True)
        splitting = [d for d, c in zip(degrees, counts) for _ in range(c)]
        rng.shuffle(splitting)
        spec = {"splitting": splitting}
    u = shape.random()
    if u < 0.25:
        spec["field"] = {"char": shape.choice((2, 3, 5, 7)), "frobenius_steps": shape.randint(0, 3)}
    elif u < 0.3:
        spec["field"] = {"char": 0}
    return spec


def _rank(spec):
    return sum(k for k, _ in ref.bundle_from_spec(spec)[0])


def _valid_request(shape, rng, cmd, as_json, stratum):
    spec = _cli_bundle(shape, rng, stratum)
    n = _rank(spec)
    req = {"cmd": cmd, "bundle": spec, "json": as_json}
    if cmd in ("cone flag", "member flag"):
        nu = shape.randint(1, min(4, n - 1))
        req["flag"] = sorted(rng.sample(range(1, n), nu))
        if cmd == "member flag":
            req["class"] = {"x": [_rational(rng, -1, 6) for _ in range(nu)], "y": _rational(rng, -20, 20)}
    elif cmd != "oracle-check" or shape.random() < 0.5:
        # r spreads over 1..n-1 by a fixed low-discrepancy sequence
        req["r"] = 1 + int((stratum * 0.6180339887) % 1 * (n - 1))
    if cmd == "member gr":
        req["class"] = {"x": _rational(rng, -2, 6), "y": _rational(rng, -20, 20)}
    return req


def _invalid_request(shape, rng, kind, as_json):
    cmd = "theta"
    req = {"cmd": cmd, "bundle": _cli_bundle(shape, rng), "json": as_json, "error": INVALID_KINDS[kind]}
    n = _rank(req["bundle"])
    req["r"] = shape.randint(1, n - 1)
    if kind == "slopes":
        d = rng.randint(-5, 5)
        req["bundle"] = {"pieces": [[1, d], [1, d + rng.randint(0, 3)]]}
    elif kind == "rank0":
        req["bundle"] = {"pieces": [[0, rng.randint(-5, 5)], [1, 0]]}
    elif kind == "char":
        req["bundle"]["field"] = {"char": rng.choice((4, 6, 8, 9, 10, 12, 15))}
    elif kind in ("flag_order", "flag_rank", "class_dim"):
        req.pop("r")
        if kind == "flag_order":
            req.update(cmd="cone flag", flag=rng.choice(([1, 1], [2, 1])))
        elif kind == "flag_rank":
            req.update(cmd="cone flag", flag=[n])
        else:
            req.update(cmd="member flag", flag=[1], class_={"x": ["1", "0"], "y": "0"})
    elif kind == "r_range":
        req["cmd"] = shape.choice(("theta", "classify", "cone gr", "vabundles", "oracle-check"))
        req["r"] = rng.choice((0, n))
    elif kind == "bad_json":
        req["bundle_text"] = json.dumps(req["bundle"])[:-1]
    elif kind == "unknown_key":
        req["bundle"]["extra"] = 1
    elif kind == "both_specs":
        d = rng.randint(-5, 5)
        req["bundle"] = {"pieces": [[1, d]], "splitting": [d]}
    elif kind == "frob_char0":
        req["bundle"]["field"] = {"frobenius_steps": 1}
    elif kind == "missing_r":
        req.pop("r")
    if "class_" in req:
        req["class"] = req.pop("class_")
    return req


def cli_argv(req):
    argv = req["cmd"].split()
    argv += ["--bundle", req.get("bundle_text") or json.dumps(req["bundle"], separators=(",", ":"))]
    if "r" in req:
        argv += ["--r", str(req["r"])]
    if "flag" in req:
        argv += ["--flag", ",".join(str(d) for d in req["flag"])]
    if "class" in req:
        argv += ["--class", json.dumps(req["class"], separators=(",", ":"))]
    if req["json"]:
        argv.append("--json")
    return argv


def cli_requests(shape, rng, count, invalid_share):
    """``count`` requests: every command and both output modes in equal
    numbers, with ``invalid_share`` of them invalid, in seeded order."""
    n_invalid = round(count * invalid_share)
    kinds = list(INVALID_KINDS)
    reqs = [_invalid_request(shape, rng, kinds[i % len(kinds)], (i // len(kinds)) % 2 == 0)
            for i in range(n_invalid)]
    reqs += [_valid_request(shape, rng, CLI_COMMANDS[i % 8], (i // 8) % 2 == 0, i // 16)
             for i in range(count - n_invalid)]
    shape.shuffle(reqs)
    for req in reqs:
        req["argv"] = cli_argv(req)
    return reqs


def defect_probes():
    """(name, argv, request) for inputs of known defects (ROADMAP item 4)
    that end within about a second each on the seed commit.  Each must end
    within PROBE_LIMIT_S in exit 1 with an error code; where ``request`` is
    given, a correct exit-0 answer to it passes too.

    Left out: ``oracle-check`` on a rank-10**8 type, which runs for longer
    than a whole benchmark run."""
    wide = {"pieces": [[1, 1200 - i] for i in range(1200)]}
    wide_text = json.dumps(wide, separators=(",", ":"))
    frobenius = '{"pieces":[[1,1],[1,0]],"field":{"char":2,"frobenius_steps":100000000}}'
    prime = {"pieces": [[1, 1], [1, 0]], "field": {"char": 100000000000031}}
    return [
        ("deep_json", ["theta", "--bundle", "[" * 100000 + "]" * 100000, "--r", "1"], None),
        ("oracle_1200_pieces", ["oracle-check", "--bundle", wide_text, "--r", "1"],
         {"cmd": "oracle-check", "bundle": wide, "r": 1, "json": False}),
        ("vabundles_1200_pieces", ["vabundles", "--bundle", wide_text, "--r", "1"],
         {"cmd": "vabundles", "bundle": wide, "r": 1, "json": False}),
        ("degree_5000_digits", ["theta", "--bundle", '{"pieces":[[1,1%s],[1,0]]}' % ("0" * 4999), "--r", "1"], None),
        ("frobenius_steps_1e8", ["cone", "gr", "--bundle", frobenius, "--r", "1"], None),
        ("r_underscore", ["theta", "--bundle", '{"splitting":[5,4,3,2,1,0,0,0,0,0,0,0]}', "--r", "1_0"], None),
        ("char_15_digit_prime", ["theta", "--bundle", json.dumps(prime), "--r", "1"],
         {"cmd": "theta", "bundle": prime, "r": 1, "json": False}),
    ]


PROBE_LIMIT_S = 0.25


# --- workloads -----------------------------------------------------------------


class Workload:
    """Interface of a workload: seeded inputs, reference data, op, check."""

    name = ""
    modules = ("flagnef",)
    # A pool in random order may be cut at any op without skewing the mix.
    shuffled = True

    def reference(self, x):
        return None

    def begin_pass(self, fl):
        return None

    def warm_up_input(self, pool):
        return pool[0]

    def warm_up(self, fl, x):
        """The untimed op that ends set-up."""
        return self.op(fl, x, self.begin_pass(fl))


class CliMix(Workload):
    """In-process ``run_command``, one op per one-off request."""

    name = "cli_mix"
    modules = ("flagnef", "flagnef.cli")

    def inputs(self, shape, rng, smoke):
        return cli_requests(shape, rng, 48 if smoke else 1920, 0.1)

    def op(self, fl, x, state):
        out, err = io.StringIO(), io.StringIO()
        _, code = sys.modules["flagnef.cli"].run_command(x["argv"], out, err)
        return code, out.getvalue(), err.getvalue()

    def check(self, x, expected, out):
        return ref.cli_output_ok(x, *out)


class Sweep(Workload):
    """Library calls, one op per large HN type, every query at every r."""

    name = "sweep"

    def inputs(self, shape, rng, smoke):
        count = 4 if smoke else 240
        lo, hi = (6, 24) if smoke else (20, 300)
        k_lo, k_hi = (3, 8) if smoke else (10, 40)
        out = []
        for i in range(count):
            # Rank is stratified (log-uniform) and piece count follows a fixed
            # low-discrepancy sequence over the strata, so every seed pairs
            # the same spread of ranks with the same piece counts.
            n = round(lo * (hi / lo) ** ((i + shape.random()) / count))
            k = min(n, k_lo + int((i * 0.6180339887) % 1 * (k_hi - k_lo + 1)))
            pieces = _with_degrees(rng, _split(shape, n, k), 20, 1)
            flags = []
            for nu in range(1, min(8, n - 1) + 1):
                flags.append((sorted(rng.sample(range(1, n), nu)),
                              [str(rng.randint(0, 3)) for _ in range(nu)], str(_rational(rng, -300, 300))))
            out.append({
                "pieces": pieces,
                "classes": [(str(rng.choice((-1, 0, 1, 2, "1/2"))), str(_rational(rng, -300, 300)))
                            for _ in range(3)],
                "flags": flags,
                "p": shape.choice((2, 3, 5, 7)),
                "delta": shape.randint(0, 8),
                "twist": rng.randint(-50, 50),
                "cover": shape.randint(1, 5),
            })
        shape.shuffle(out)
        return out

    def reference(self, x):
        return ref.theta_rows([tuple(pc) for pc in x["pieces"]])

    def warm_up_input(self, pool):
        # the smallest type, so that set-up does not depend on the seed's draw
        return min(pool, key=lambda x: sum(k for k, _ in x["pieces"]))

    def op(self, fl, x, state):
        h = fl.make_hn_type(x["pieces"])
        classes = [fl.NSClassGr(a, b) for a, b in x["classes"]]
        per_r = []
        for r in range(1, h.rank):
            cone = fl.grassmann_nef_cone(h, r)
            per_r.append((fl.theta(h, r), fl.classify_tautological(h, r), cone,
                          [(fl.is_nef_gr(c, cone), fl.is_ample_gr(c, cone)) for c in classes],
                          fl.anticanonical_is_nef(h, r)))
        flags = []
        for dims, xs, y in x["flags"]:
            cone = fl.flag_nef_cone(h, fl.FlagType(tuple(dims)))
            flags.append((cone, fl.is_nef_flag(fl.NSClassFlag(tuple(xs), y), cone)))
        ctx = fl.FieldContext(x["p"], x["delta"])
        hp = h.frobenius_pullback(ctx)
        cones_p = [fl.grassmann_nef_cone(hp, r, ctx) for r in range(1, h.rank)]
        return h, per_r, flags, cones_p, h.twist(x["twist"]), h.dual(), h.cover_pullback(x["cover"])

    def check(self, x, rows, out):
        h, per_r, flags, cones_p, twisted, dual, cover = out
        pieces = [tuple(pc) for pc in x["pieces"]]
        if [(pc.rank, pc.degree) for pc in h.pieces] != pieces or len(per_r) != len(rows):
            return False
        classes = [(Fraction(a), Fraction(b)) for a, b in x["classes"]]
        for row, (bd, cls, cone, members, anti) in zip(rows, per_r):
            t, s, tail_rank, tail_degree, mu, value = row
            if (bd.t, bd.s, bd.tail_rank, bd.tail_degree, bd.mu_t, bd.theta) != row:
                return False
            if cls.value != ref.positivity(value) or anti != (len(pieces) == 1):
                return False
            ray = ref.primitive((1, -value))
            if (cone.fiber_ray.u, cone.fiber_ray.v, cone.theta_ray.u, cone.theta_ray.v) != (0, 1) + ray:
                return False
            if cone.theta_used != value or cone.p_delta != 1:
                return False
            if members != [(ref.nef_gr(a, b, value), ref.ample_gr(a, b, value)) for a, b in classes]:
                return False
        for (dims, xs, y), (cone, nef) in zip(x["flags"], flags):
            thetas = tuple(rows[d - 1][5] for d in dims)
            if cone.thetas_used != thetas or list(cone.rays) != ref.flag_rays(thetas):
                return False
            if nef != ref.nef_flag([Fraction(v) for v in xs], Fraction(y), thetas):
                return False
        pd = x["p"] ** x["delta"]
        for row, cone in zip(rows, cones_p):
            value = row[5]
            # the stabilized pullback scales theta by p**delta and keeps the ray
            if cone.theta_used != pd * value or cone.p_delta != pd:
                return False
            if (cone.theta_ray.u, cone.theta_ray.v) != ref.primitive((1, -value)):
                return False
        m, c = x["twist"], x["cover"]
        return (len(cones_p) == len(rows)
                and [(pc.rank, pc.degree) for pc in twisted.pieces] == [(k, d + k * m) for k, d in pieces]
                and [(pc.rank, pc.degree) for pc in dual.pieces] == [(k, -d) for k, d in reversed(pieces)]
                and [(pc.rank, pc.degree) for pc in cover.pieces] == [(k, c * d) for k, d in pieces])


class Verify(Workload):
    """Closed form against brute force, plus every exterior-power block, over
    the built-in corpus enumerated by the program and seeded random types."""

    name = "verify"
    modules = ("flagnef", "flagnef.corpus")
    shuffled = False

    def __init__(self, smoke):
        self.bounds = (3, 2) if smoke else (6, 4)

    def inputs(self, shape, rng, smoke):
        types = ref.corpus(*self.bounds)
        ops = [{"corpus": types[i], "last": i == len(types) - 1} for i in range(len(types))]
        count = 6 if smoke else 480
        for i in range(count):
            # ranks 2..12 in equal numbers, each with piece counts 1..5 in turn
            n = 2 + (i * 11) // count
            k = 1 + i % min(5, n)
            ops.append({"pieces": _with_degrees(rng, _split(shape, n, k), 8, 3)})
        return ops

    def reference(self, x):
        pieces = x.get("pieces") or x["corpus"]
        return [tuple(pc) for pc in pieces], ref.theta_rows([tuple(pc) for pc in pieces])

    def begin_pass(self, fl):
        return sys.modules["flagnef.corpus"].iter_hn_types(*self.bounds)

    def op(self, fl, x, corpus):
        if "corpus" in x:
            h = next(corpus)
            if x["last"] and next(corpus, None) is not None:
                raise AssertionError("the corpus has more types than expected")
        else:
            h = fl.make_hn_type(x["pieces"])
        return h, [(fl.theta(h, r), fl.theta_oracle(h, r), fl.enumerate_va(h, r)) for r in range(1, h.rank)]

    def check(self, x, expected, out):
        pieces, rows = expected
        h, per_r = out
        if [(pc.rank, pc.degree) for pc in h.pieces] != pieces or len(per_r) != len(rows):
            return False
        ranks = [k for k, _ in pieces]
        for r, (row, (bd, oracle, blocks)) in enumerate(zip(rows, per_r), start=1):
            value = row[5]
            if bd.theta != value or oracle != value:
                return False
            summary = [(b.composition, b.rank, b.degree, b.slope_sum) for b in blocks]
            if not ref.check_blocks(pieces, r, summary, value, ref.count_compositions(ranks, r)):
                return False
        return True


def make(name, smoke):
    if name == "cli_mix":
        return CliMix()
    if name == "sweep":
        return Sweep()
    if name == "verify":
        return Verify(smoke)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("cli_mix", "sweep", "verify")
