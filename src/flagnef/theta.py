"""The positivity threshold invariant of an HN type.

For a type with pieces (r_i, d_i), slopes mu_i = d_i / r_i, and a quotient
dimension r, the invariant is

    theta = min { sum_i a_i * mu_i : 0 <= a_i <= r_i, sum_i a_i = r }.

Because the slopes strictly decrease, the minimum is attained by filling from
the bottom of the filtration: take the last pieces whole and a partial block
of size s from the threshold piece t, which gives the closed form

    theta = s * mu_t + (degree of everything below piece t).

On the quotient polygon (``HNType.polygon``) the tail below piece t is one
vertex and piece t the edge above it, so the invariant is one bisection on
the polygon's rank column plus one partial block, an integer numerator over
a positive denominator (``_theta_value``, which the cones and the trichotomy
read).  :func:`theta` adds the full breakdown and the ``Fraction``s;
:func:`theta_oracle` recomputes the minimum over every composition by an
exhaustive dynamic program on the ranks and slopes alone, kept deliberately
independent so the two can cross-check each other.  :func:`enumerate_va`
lists the rank/degree bookkeeping of every block of the induced filtration
on the r-th exterior power (whose minimal slope is theta), from an iterative
enumeration of bounded compositions.  Nothing recurses on the number of pieces.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import compress
from typing import Iterator, NamedTuple

from .errors import QuotientRankOutOfRangeError
from .hn import HNType, _shown


class ThetaBreakdown(NamedTuple):
    """Full record of one invariant evaluation.

    ``t`` is the 1-based threshold index, ``tail_rank``/``tail_degree`` sum
    the pieces strictly below it, ``s = r - tail_rank`` is the partial block
    taken from piece t, and ``theta = s * mu_t + tail_degree``.
    """

    r: int
    t: int
    tail_rank: int
    tail_degree: int
    s: int
    mu_t: Fraction
    theta: Fraction


class VaBundle(NamedTuple):
    """Exact rank and degree of one tensor-of-exterior-powers block.

    ``composition`` records how many exterior factors come from each graded
    piece; ``rank`` is the product of binomials, ``slope_sum`` the weighted
    slope sum, and ``degree = rank * slope_sum`` (always an integer).
    """

    composition: tuple[int, ...]
    rank: int
    degree: int
    slope_sum: Fraction


def _require_quotient_rank(n: int, r: int) -> None:
    """Check 1 <= r <= n - 1 for a type of total rank n."""
    if not isinstance(r, int):
        raise TypeError("quotient dimension r must be an integer")
    if r < 1 or r >= n:
        raise QuotientRankOutOfRangeError(
            f"quotient dimension must satisfy 1 <= r <= {_shown(n - 1)}, got {_shown(r)}"
        )


def _theta_parts(h: HNType, r: int) -> tuple[int, int, int]:
    """The first polygon vertex k whose rank reaches r (the edge into it is
    piece t), and theta as ``s * d_t + tail_degree * r_t`` over ``r_t > 0``."""
    ranks, degrees = h.polygon
    _require_quotient_rank(ranks[-1], r)
    k = bisect_left(ranks, r)
    r_t = ranks[k] - ranks[k - 1]
    return k, (r - ranks[k - 1]) * (degrees[k] - degrees[k - 1]) + degrees[k - 1] * r_t, r_t


def _theta_value(h: HNType, r: int) -> tuple[int, int]:
    """theta as ``(s * d_t + tail_degree * r_t, r_t)``: unreduced, r_t > 0."""
    return _theta_parts(h, r)[1:]


def threshold_index(h: HNType, r: int) -> int:
    """Largest 1-based index t such that r_t + ... + r_d >= r."""
    return theta(h, r).t


def theta(h: HNType, r: int) -> ThetaBreakdown:
    """Evaluate the invariant with its full breakdown."""
    k, num, r_t = _theta_parts(h, r)
    ranks, degrees = h.polygon
    tail_rank, tail_degree = ranks[k - 1], degrees[k - 1]
    return ThetaBreakdown(
        r=r,
        t=len(ranks) - k,
        tail_rank=tail_rank,
        tail_degree=tail_degree,
        s=r - tail_rank,
        mu_t=Fraction(degrees[k] - tail_degree, r_t),
        theta=Fraction(num, r_t),
    )


def _bounded_compositions(caps: tuple[int, ...], total: int) -> Iterator[tuple[int, ...]]:
    """All tuples a with 0 <= a_i <= caps[i] and sum(a) == total,
    lexicographically increasing.  An odometer: each step raises the
    rightmost entry that can still take a unit from the entries after it and
    refills those from the back, so every yielded tuple is valid, nothing is
    materialized and nothing recurses.  A step walks only the entries it changes."""
    if not 0 <= total <= sum(caps):
        return
    n = len(caps)
    a = [0] * n
    i, rest = -1, total  # ``rest`` units go after position i
    while True:
        j = n
        while rest:  # the smallest suffix fills from the back
            j -= 1
            a[j] = c = caps[j] if caps[j] < rest else rest
            rest -= c
        yield tuple(a)
        # scan back from the last nonzero entry, clearing what the refill will redo
        for i in range(n - 1 if j < n else i, -1, -1):
            if rest and a[i] < caps[i]:
                break
            rest += a[i]
            a[i] = 0
        else:
            return
        a[i] += 1
        rest -= 1


def _slope_weights(h: HNType) -> tuple[tuple[int, ...], int]:
    """Per-piece slope numerators over a common denominator:
    slope_i = weights[i] / den.  Keeps the hot loops in integer arithmetic."""
    den = math.lcm(*(p.rank for p in h.pieces))
    return tuple(p.degree * (den // p.rank) for p in h.pieces), den


def enumerate_va(h: HNType, r: int) -> list[VaBundle]:
    """All exterior-power blocks for quotient dimension r, one per
    composition, in lexicographic order of the composition."""
    ranks = h.ranks
    _require_quotient_rank(sum(ranks), r)
    weights, den = _slope_weights(h)
    pieces = tuple(zip(ranks, weights))
    slopes: dict[int, Fraction] = {}  # blocks share few slope sums: one Fraction each
    out: list[VaBundle] = []
    for a in _bounded_compositions(ranks, r):
        rank, num = 1, 0
        # zero entries add nothing to either sum, so only the used pieces are read
        for (c, w), k in zip(compress(pieces, a), compress(a, a)):
            rank *= math.comb(c, k)
            num += k * w
        total = rank * num
        if total % den:
            raise AssertionError("exterior-power degree must be an integer")
        slope = slopes.get(num)
        if slope is None:
            slopes[num] = slope = Fraction(num, den)
        out.append(VaBundle(a, rank, total // den, slope))
    return out


def theta_oracle(h: HNType, r: int) -> Fraction:
    """Exhaustive minimum of slope sums over every composition, by dynamic
    programming over (piece, units used) in O(sum(caps) * r) integer steps.

    ``best[j]`` is the least slope numerator over j units of the pieces seen
    so far (None while out of reach); each piece relaxes it with a = 1..c of
    its c units.  It reads only the ranks and slopes, not the polygon, and
    does not assume the slope order, so it shares no logic with the closed
    form in :func:`theta`; the two are meant to check each other."""
    caps = h.ranks
    _require_quotient_rank(sum(caps), r)
    weights, den = _slope_weights(h)
    best: list = [0] + [None] * r
    seen = 0
    for c, w in zip(caps, weights):
        prev = best[:]
        for a in range(1, c + 1):
            aw = a * w
            for j in range(a, min(r, seen + a) + 1):
                v = prev[j - a] + aw
                if best[j] is None or v < best[j]:
                    best[j] = v
        seen += c
    return Fraction(best[r], den)
