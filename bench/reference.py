"""Independent reference answers that every benchmark op is checked against.

Nothing here imports flagnef.  The answers come straight from the
definitions: theta fills the quotient from the bottom piece upward, in
Fractions; rays are primitive integer vectors; nef and ample membership is
the closed-form inequality of the nef cone; exterior-power blocks are
checked through the identities sum(rank) = C(n, r) and
sum(degree) = C(n - 1, r - 1) * deg.  CLI reports are rebuilt here and
compared with what the program printed.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

# A breakdown row: (t, s, tail_rank, tail_degree, mu_t, theta).


def theta_rows(pieces):
    """Breakdown for every r in 1..n-1, filling from the bottom piece.

    Row r-1 is (t, s, tail_rank, tail_degree, mu_t, theta), where the last
    pieces below t are taken whole and s units come from piece t."""
    n = sum(rank for rank, _ in pieces)
    rows = []
    tail_rank = tail_degree = 0
    for t in range(len(pieces), 0, -1):
        rank, degree = pieces[t - 1]
        mu = Fraction(degree, rank)
        for s in range(1, rank + 1):
            if tail_rank + s >= n:
                return rows
            rows.append((t, s, tail_rank, tail_degree, mu, s * mu + tail_degree))
        tail_rank += rank
        tail_degree += degree
    return rows


def primitive(coords):
    """Primitive integer vector on the ray through ``coords``."""
    fracs = [Fraction(c) for c in coords]
    den = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * den) for f in fracs]
    g = math.gcd(*ints)
    return tuple(v // g for v in ints)


def positivity(value):
    """Class of O(1) from the sign of theta."""
    if value > 0:
        return "ample"
    return "nef_not_ample" if value == 0 else "not_nef"


def nef_gr(x, y, theta_value, pd=1):
    return x >= 0 and pd * y + theta_value * x >= 0


def ample_gr(x, y, theta_value, pd=1):
    return x > 0 and pd * y + theta_value * x > 0


def flag_rays(thetas, pd=1):
    nu = len(thetas)
    rays = []
    for i, value in enumerate(thetas):
        coords = [0] * (nu + 1)
        coords[i] = pd
        coords[nu] = -value
        rays.append(primitive(coords))
    rays.append((0,) * nu + (1,))
    return rays


def nef_flag(xs, y, thetas, pd=1):
    return all(x >= 0 for x in xs) and pd * y + sum(t * x for t, x in zip(thetas, xs)) >= 0


def compositions(caps, total):
    """Tuples a with 0 <= a_i <= caps[i] and sum(a) == total, in lexicographic
    order.  Iterative, so the depth is not bounded by the recursion limit."""
    suffix = [0] * (len(caps) + 1)
    for i in range(len(caps) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + caps[i]
    out = []
    stack = [((), total)]
    while stack:
        prefix, remaining = stack.pop()
        i = len(prefix)
        if i == len(caps):
            out.append(prefix)
            continue
        lo, hi = max(0, remaining - suffix[i + 1]), min(caps[i], remaining)
        stack.extend((prefix + (a,), remaining - a) for a in range(hi, lo - 1, -1))
    return out


def count_compositions(caps, total):
    """Number of tuples counted by :func:`compositions`, by dynamic programming."""
    ways = [1] + [0] * total
    for cap in caps:
        nxt = [0] * (total + 1)
        for k in range(total + 1):
            if ways[k]:
                for a in range(min(cap, total - k) + 1):
                    nxt[k + a] += ways[k]
        ways = nxt
    return ways[total]


def check_blocks(pieces, r, blocks, theta_value, count):
    """Exterior-power checks on the (composition, rank, degree, slope_sum)
    blocks the program returned for quotient dimension r."""
    n = sum(rank for rank, _ in pieces)
    deg = sum(degree for _, degree in pieces)
    if len(blocks) != count:
        return False
    comps = [b[0] for b in blocks]
    if any(a >= b for a, b in zip(comps, comps[1:])):
        return False
    if sum(b[1] for b in blocks) != math.comb(n, r):
        return False
    if sum(b[2] for b in blocks) != math.comb(n - 1, r - 1) * deg:
        return False
    return min(b[3] for b in blocks) == theta_value


def corpus(max_rank, max_abs_degree):
    """Every HN type with total rank <= max_rank and piece degrees bounded
    by max_abs_degree: total rank ascending, then rank composition
    lexicographically, then degree tuples lexicographically."""
    out = []

    def rank_comps(n):
        if n == 0:
            yield ()
            return
        for first in range(1, n + 1):
            for rest in rank_comps(n - first):
                yield (first,) + rest

    def degree_tuples(ranks, prefix):
        if len(prefix) == len(ranks):
            yield prefix
            return
        k = ranks[len(prefix)]
        for d in range(-max_abs_degree, max_abs_degree + 1):
            # slopes strictly decrease: d / k < previous degree / previous rank
            if prefix and d * ranks[len(prefix) - 1] >= prefix[-1] * k:
                break
            yield from degree_tuples(ranks, prefix + (d,))

    for n in range(1, max_rank + 1):
        for ranks in rank_comps(n):
            out.extend(tuple(zip(ranks, degrees)) for degrees in degree_tuples(ranks, ()))
    return out


# --- CLI reports -----------------------------------------------------------


def bundle_from_spec(spec):
    """(pieces, p, delta, echo) of a valid bundle spec dict."""
    field = spec.get("field") or {}
    p, delta = field.get("char", 0), field.get("frobenius_steps", 0)
    field_echo = {"char": p, "frobenius_steps": delta} if p else {"char": 0}
    if "pieces" in spec:
        pieces = [tuple(x) for x in spec["pieces"]]
        echo = {"pieces": [list(x) for x in pieces], "field": field_echo}
    else:
        degrees = sorted(spec["splitting"], reverse=True)
        counts = [(a, len(list(g))) for a, g in itertools.groupby(degrees)]
        pieces = [(m, m * a) for a, m in counts]
        echo = {"splitting": degrees, "field": field_echo}
    return pieces, p, delta, echo


def cli_expected(request):
    """The exact (exit code, stdout) of a valid request."""
    cmd = request["cmd"]
    pieces, p, delta, echo = bundle_from_spec(request["bundle"])
    pd = p**delta if p else 1
    rows = theta_rows(pieces)
    inp = {"bundle": echo}
    r = request.get("r")
    if r is not None:
        inp["r"] = r
    if cmd == "theta":
        t, s, tail_rank, tail_degree, mu, value = rows[r - 1]
        result = {"theta": str(value), "t": t, "s": s, "mu_t": str(mu),
                  "tail_rank": tail_rank, "tail_degree": tail_degree}
    elif cmd == "classify":
        value = rows[r - 1][5]
        result = {"class": positivity(value), "theta": str(value)}
    elif cmd == "cone gr":
        value = rows[r - 1][5]
        result = {"rays": [[0, 1], list(primitive((pd, -value)))], "theta": str(value), "p_delta": pd}
    elif cmd in ("cone flag", "member flag"):
        dims = request["flag"]
        inp["flag"] = dims
        thetas = [rows[d - 1][5] for d in dims]
        if cmd == "cone flag":
            result = {"rays": [list(ray) for ray in flag_rays(thetas, pd)],
                      "thetas": [str(t) for t in thetas], "p_delta": pd}
        else:
            xs = [Fraction(v) for v in request["class"]["x"]]
            y = Fraction(request["class"]["y"])
            inp["class"] = {"x": [str(v) for v in xs], "y": str(y)}
            result = {"nef": nef_flag(xs, y, thetas, pd)}
    elif cmd == "member gr":
        value = rows[r - 1][5]
        x, y = Fraction(request["class"]["x"]), Fraction(request["class"]["y"])
        inp["class"] = {"x": str(x), "y": str(y)}
        result = {"nef": nef_gr(x, y, value, pd), "ample": ample_gr(x, y, value, pd)}
    elif cmd == "vabundles":
        ranks = [k for k, _ in pieces]
        slopes = [Fraction(d, k) for k, d in pieces]
        va = []
        for a in compositions(ranks, r):
            rank = math.prod(math.comb(k, ai) for k, ai in zip(ranks, a))
            slope_sum = sum((ai * mu for ai, mu in zip(a, slopes)), Fraction(0))
            va.append({"composition": list(a), "rank": rank,
                       "degree": int(rank * slope_sum), "slope_sum": str(slope_sum)})
        result = {"count": len(va), "min_slope_sum": str(rows[r - 1][5]), "va": va}
    elif cmd == "oracle-check":
        n = sum(k for k, _ in pieces)
        checks = 1 if r is not None else n - 1
        result = {"types": 1, "checks": checks, "mismatches": 0, "ok": True}
    else:
        raise ValueError(f"unknown command {cmd!r}")
    report = {"command": cmd, "input": inp, "result": result}
    if request["json"]:
        return 0, report
    return 0, render_text(report)


def _aligned(pairs):
    width = max(len(k) for k, _ in pairs)
    return "".join(f"{k:<{width}}  {v}\n" for k, v in pairs)


def _ray(coords):
    return "(" + ",".join(str(c) for c in coords) + ")"


def _bool(b):
    return "true" if b else "false"


def render_text(report):
    """Text layout of a report, written from the documented output format."""
    cmd, res = report["command"], report["result"]
    if cmd == "theta":
        return _aligned([(k, str(res[k])) for k in ("theta", "t", "s", "mu_t", "tail_rank", "tail_degree")])
    if cmd == "classify":
        return res["class"] + "\n"
    if cmd == "cone gr":
        return _aligned([("rays", ", ".join(_ray(x) for x in res["rays"])),
                         ("theta", res["theta"]), ("p_delta", str(res["p_delta"]))])
    if cmd == "cone flag":
        return _aligned([("rays", ", ".join(_ray(x) for x in res["rays"])),
                         ("thetas", ", ".join(res["thetas"])), ("p_delta", str(res["p_delta"]))])
    if cmd == "member gr":
        return _aligned([("nef", _bool(res["nef"])), ("ample", _bool(res["ample"]))])
    if cmd == "member flag":
        return _aligned([("nef", _bool(res["nef"]))])
    if cmd == "vabundles":
        rows = [("composition", "rank", "degree", "slope_sum")]
        rows += [(_ray(v["composition"]), str(v["rank"]), str(v["degree"]), v["slope_sum"]) for v in res["va"]]
        widths = [max(len(row[i]) for row in rows) for i in range(4)]
        return "".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n" for row in rows)
    return _aligned([(k, _bool(res[k]) if k == "ok" else str(res[k]))
                     for k in ("types", "checks", "mismatches", "ok")])


def cli_output_ok(request, code, out, err):
    """Whether one in-process or subprocess CLI call answered ``request`` correctly."""
    if "error" in request:
        return code == 1 and out == "" and err.startswith(f"flagnef: error[{request['error']}]: ")
    want_code, want = cli_expected(request)
    if code != want_code or err != "":
        return False
    if request["json"]:
        if out.count("\n") != 1 or not out.endswith("\n"):
            return False
        try:
            return json.loads(out) == want
        except ValueError:
            return False
    return out == want
