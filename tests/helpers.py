"""Shared test helpers: independent reference oracles, random inputs and
the hypothesis strategies for HN types."""

from __future__ import annotations

import io
import itertools
import json
import math
import random
from fractions import Fraction

from hypothesis import strategies as st

from flagnef import (
    ConeDescriptionFlag,
    ConeDescriptionGr,
    HNType,
    NSClassFlag,
    NSClassGr,
    make_hn_type,
)
from flagnef.cli import _RATIONAL_RE, _text, run_command
from flagnef.errors import ParseError
from flagnef.hn import Polygon


def invoke(argv):
    """``run_command(argv)`` on captured streams, as (report, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    report, code = run_command(argv, stdout=out, stderr=err)
    return report, code, out.getvalue(), err.getvalue()


def brute_min_slope_sum(h: HNType, r: int) -> Fraction:
    """Reference minimum over compositions, computed with itertools.product
    and direct Fraction sums; shares nothing with the library enumeration."""
    caps = [p.rank for p in h.pieces]
    slopes = [p.slope for p in h.pieces]
    best = None
    for a in itertools.product(*(range(c + 1) for c in caps)):
        if sum(a) != r:
            continue
        value = sum(ai * mu for ai, mu in zip(a, slopes))
        if best is None or value < best:
            best = value
    assert best is not None
    return best


def brute_blocks(h: HNType, r: int) -> list[tuple]:
    """Reference exterior-power blocks, as plain (composition, rank, degree,
    slope_sum) tuples in lexicographic order: a filtered itertools.product
    with binomial ranks and Fraction slope sums."""
    out = []
    for a in itertools.product(*(range(p.rank + 1) for p in h.pieces)):
        if sum(a) == r:
            rank = math.prod(math.comb(p.rank, k) for p, k in zip(h.pieces, a))
            slope_sum = sum(k * p.slope for k, p in zip(a, h.pieces))
            out.append((a, rank, rank * slope_sum, slope_sum))
    return out


def _law(pd: int, y: Fraction, num: int, den: int) -> int:
    """The numerator of p_delta*y + num/den over the positive denominator
    y_d*den (den > 0): an integer with its sign."""
    return pd * y.numerator * den + num * y.denominator


def reference_nef_gr(c: NSClassGr, cone: ConeDescriptionGr) -> bool:
    """Reference nef test from the sign law, read off ``theta_used`` and
    ``p_delta``: x >= 0 and p_delta * y + theta * x >= 0."""
    x, t = c.x, cone.theta_used
    return x.numerator >= 0 and _law(cone.p_delta, c.y, t.numerator * x.numerator,
                                     t.denominator * x.denominator) >= 0


def reference_ample_gr(c: NSClassGr, cone: ConeDescriptionGr) -> bool:
    """Reference ample test: both inequalities of ``reference_nef_gr`` strict."""
    x, t = c.x, cone.theta_used
    return x.numerator > 0 and _law(cone.p_delta, c.y, t.numerator * x.numerator,
                                    t.denominator * x.denominator) > 0


def reference_nef_flag(c: NSClassFlag, cone: ConeDescriptionFlag) -> bool:
    """Reference flag nef test from the sign law: every x_i >= 0 and
    p_delta * y + sum_i theta_i * x_i >= 0, with the sum folded into one
    integer fraction."""
    assert len(c.x) == cone.flag.nu
    if any(xi.numerator < 0 for xi in c.x):
        return False
    num, den = 0, 1  # sum_i theta_i * x_i
    for t, x in zip(cone.thetas_used, c.x):
        d = t.denominator * x.denominator
        num, den = num * d + t.numerator * x.numerator * den, den * d
    return _law(cone.p_delta, c.y, num, den) >= 0


def probe_classes(rays) -> list[tuple]:
    """Coordinates (x_1, ..., x_nu, y) that probe a simplicial cone with
    the given rays (the fiber ray last): every generator, their sum, the
    points 1/7 to either side of each ray (in y for a theta ray, in x_1 for
    the fiber ray), a class with x_1 = -1 and a large y, and zero."""
    nu = len(rays) - 1
    step = Fraction(1, 7)
    out = [tuple(ray) for ray in rays]
    out.append(tuple(map(sum, zip(*rays))))
    for k, ray in enumerate(rays):
        slot = -1 if k < nu else 0
        for sign in (1, -1):
            moved = list(ray)
            moved[slot] += sign * step
            out.append(tuple(moved))
    out.append((-1,) + (0,) * (nu - 1) + (10**6,))
    out.append((0,) * (nu + 1))
    return out


def reference_polygon(pieces) -> Polygon:
    """Reference quotient polygon: the two columns of the pieces, bottom-up,
    summed with itertools.accumulate."""
    ranks, degrees = zip(*reversed(pieces))
    return Polygon(tuple(itertools.accumulate(ranks, initial=0)),
                   tuple(itertools.accumulate(degrees, initial=0)))


def slope_fault_message(pieces) -> str | None:
    """The message of the topmost pair of adjacent pieces whose slopes do
    not strictly decrease, found top-down with Fraction slopes, or None."""
    for i, (a, b) in enumerate(zip(pieces, pieces[1:]), start=1):
        if a.slope <= b.slope:
            return f"slopes must strictly decrease, but mu_{i} = {a.slope} <= mu_{i + 1} = {b.slope}"
    return None


def merge_by_slope(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sort (rank, degree) pairs by slope descending and merge equal slopes,
    producing valid HN data from arbitrary pairs."""
    pairs = sorted(pairs, key=lambda rd: Fraction(rd[1], rd[0]), reverse=True)
    merged: list[tuple[int, int]] = []
    for rank, degree in pairs:
        if merged and Fraction(degree, rank) == Fraction(merged[-1][1], merged[-1][0]):
            merged[-1] = (merged[-1][0] + rank, merged[-1][1] + degree)
        else:
            merged.append((rank, degree))
    return merged


def random_hn_type(rng: random.Random, max_rank: int = 12, degree_bound: int = 30) -> HNType:
    """Random valid HN type with total rank in [2, max_rank]."""
    while True:
        n_pieces = rng.randint(1, 5)
        raw = [
            (rng.randint(1, 4), rng.randint(-degree_bound, degree_bound))
            for _ in range(n_pieces)
        ]
        h = make_hn_type(merge_by_slope(raw))
        if 2 <= h.rank <= max_rank:
            return h


@st.composite
def hn_types(draw, max_pieces=4, piece_rank=3, degree_bound=9):
    """Valid HN types from up to max_pieces random pieces, merged by slope."""
    raw = draw(
        st.lists(
            st.tuples(st.integers(1, piece_rank), st.integers(-degree_bound, degree_bound)),
            min_size=1,
            max_size=max_pieces,
        )
    )
    return make_hn_type(merge_by_slope(raw))


@st.composite
def hn_types_with_r(draw, max_pieces=4, piece_rank=3, degree_bound=9):
    """An HN type of rank >= 2 (a lone rank-1 piece becomes rank 2) and a
    quotient dimension 1 <= r <= rank - 1."""
    h = draw(hn_types(max_pieces, piece_rank, degree_bound))
    if h.rank < 2:
        h = make_hn_type([(2, h.pieces[0].degree)])
    r = draw(st.integers(1, h.rank - 1))
    return h, r


def reference_parse_rational(value, where: str) -> Fraction:
    """Reference CLI rational reader: a string in the "num/den" language goes
    to ``Fraction`` whole, which parses it a second time."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL_RE.fullmatch(value):
        try:
            return Fraction(value)
        except ValueError:  # beyond the int/str conversion limit
            pass
    raise ParseError(f"{where}: expected an integer or 'num/den' string, got {value!r}")


def reference_aligned(result: dict) -> str:
    """Reference default text layout: each "key  value" line padded through
    a nested width spec."""
    width = max(len(k) for k in result)
    return "".join(f"{k:<{width}}  {_text(v)}\n" for k, v in result.items())


def reference_va_table(result: dict) -> str:
    """Reference vabundles table: rows of cells, columns by transposition,
    each cell padded through a nested width spec."""
    rows = [("composition", "rank", "degree", "slope_sum")]
    rows += [("(" + ",".join(map(str, e["composition"])) + ")", str(e["rank"]), str(e["degree"]),
              e["slope_sum"]) for e in result["va"]]
    w0, w1, w2 = (max(map(len, column)) for column in list(zip(*rows))[:3])
    return "".join([f"{c:<{w0}}  {k:<{w1}}  {d:<{w2}}  {s}\n" for c, k, d, s in rows])


def reference_render(report: dict, as_json: bool) -> str:
    """Reference rendering of a CLI report: ``json.dumps`` with compact
    separators, or the command's text layout."""
    if as_json:
        return json.dumps(report, separators=(",", ":")) + "\n"
    result = report["result"]
    if report["command"] == "classify":
        return result["class"] + "\n"
    return (reference_va_table if report["command"] == "vabundles" else reference_aligned)(result)
