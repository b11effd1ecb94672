"""Shared test helpers: independent reference oracles, random inputs and
the hypothesis strategies for HN types."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from hypothesis import strategies as st

from flagnef import HNType, make_hn_type
from flagnef.hn import Polygon


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
