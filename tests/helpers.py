"""Shared test helpers: independent reference oracles and random inputs."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from flagnef import HNType, make_hn_type


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
