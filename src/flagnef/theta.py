"""The positivity threshold invariant of an HN type.

For a type with pieces (r_i, d_i), slopes mu_i = d_i / r_i, and a quotient
dimension r, the invariant is

    theta = min { sum_i a_i * mu_i : 0 <= a_i <= r_i, sum_i a_i = r }.

Because the slopes strictly decrease, the minimum is attained by filling from
the bottom of the filtration: take the last pieces whole and a partial block
of size s from the threshold piece t, which gives the closed form

    theta = s * mu_t + (degree of everything below piece t).

On the quotient polygon (``HNType.polygon``) the tail below piece t is one
vertex and piece t the edge above it, so the closed form is one bisection,
made by ``_theta_value`` alone.  :func:`theta_oracle` recomputes the minimum
from the ranks and slopes alone, so that the two check each other;
:func:`enumerate_va` lists the blocks of the r-th exterior power, whose
least slope is theta.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from fractions import Fraction
from typing import Iterator, NamedTuple

from .errors import LimitExceededError
from .hn import HNType, _require_quotient_rank, _shown


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


def _theta_value(h: HNType, r: int) -> tuple[int, int, int, Fraction]:
    """``(k, num, r_t, value)``: the first polygon vertex k whose rank
    reaches r (the edge into it is piece t), theta as ``num`` over
    ``r_t > 0`` (``num = s * d_t + tail_degree * r_t``), and ``value``, the
    Fraction kept for r in h's ``_theta`` dict, which holds theta(r) under r
    and the slope of piece t under -t, each built once."""
    ranks, degrees = h.polygon
    if type(r) is not int or not 0 < r < ranks[-1]:  # an exact int in range skips the check
        _require_quotient_rank(ranks[-1], r)
    k = bisect_left(ranks, r)
    tail_rank, tail_degree = ranks[k - 1], degrees[k - 1]
    r_t = ranks[k] - tail_rank
    num = (r - tail_rank) * (degrees[k] - tail_degree) + tail_degree * r_t
    value = h._theta.get(r)
    if value is None:
        h._theta[r] = value = Fraction(num, r_t)
    return k, num, r_t, value


def threshold_index(h: HNType, r: int) -> int:
    """Largest 1-based index t such that r_t + ... + r_d >= r."""
    return len(h.pieces) + 1 - _theta_value(h, r)[0]


def theta(h: HNType, r: int) -> ThetaBreakdown:
    """Evaluate the invariant with its full breakdown.  Its ``theta`` and
    ``mu_t`` are the type's kept values, the same objects on every call."""
    k, _, r_t, value = _theta_value(h, r)
    ranks, degrees = h.polygon
    tail_rank, tail_degree = ranks[k - 1], degrees[k - 1]
    t = len(ranks) - k
    mu = h._theta.get(-t)
    if mu is None:
        h._theta[-t] = mu = Fraction(degrees[k] - tail_degree, r_t)
    return tuple.__new__(ThetaBreakdown, (r, t, tail_rank, tail_degree, r - tail_rank, mu, value))


def _bounded_compositions(caps: tuple[int, ...], weights: tuple[int, ...],
                          total: int) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """All tuples a with 0 <= a_i <= caps[i] and sum(a) == total, in
    lexicographic order, as ``(a, prod comb(caps[i], a_i), sum a_i * weights[i])``.
    An odometer: each step raises the rightmost entry that can still take a
    unit from the entries after it and refills those from the back, so every
    yielded tuple is valid, nothing is materialized and nothing recurses.  A
    step walks only the entries it changes and updates both sums for them
    alone (raising k to k + 1 scales comb(c, k) by (c - k) / (k + 1))."""
    if not 0 <= total <= sum(caps):
        return
    n = len(caps)
    a = [0] * n
    rank, num = 1, 0
    i, rest = -1, total  # ``rest`` units go after position i
    while True:
        j = n
        while rest:  # the smallest suffix fills from the back
            j -= 1
            c = caps[j]
            a[j] = k = c if c < rest else rest
            rest -= k
            rank *= math.comb(c, k)  # 1 for a full entry
            num += k * weights[j]
        yield tuple(a), rank, num
        # scan back from the last nonzero entry, clearing what the refill will redo
        for i in range(n - 1 if j < n else i, -1, -1):
            k, c = a[i], caps[i]
            if rest and k < c:
                break
            rank //= math.comb(c, k)
            num -= k * weights[i]
            rest += k
            a[i] = 0
        else:
            return
        rank = rank * (c - k) // (k + 1)
        num += weights[i]
        a[i] = k + 1
        rest -= 1


# Slope tables shared process-wide by the small types of one den, since the
# corpus's types repeat few dens and slope sums.  A key fixes its value, so
# any reader may add to a table.  The module keeps at most _SHARED_DENS dens;
# a table renewed once it holds _SLOPES_PER_DEN slopes keeps at most that
# many plus what the types that borrowed it before then add, at most
# _WHOLE_TABLE_BLOCKS each.
_SHARED_DENS = 16
_SLOPES_PER_DEN = 128
_SHARED_SLOPES: dict[int, dict[int, Fraction]] = {}
_SHARED_LOCK = threading.Lock()  # the caps hold under threads too


def _oracle_data(h: HNType, r: int) -> tuple[tuple[int, ...], tuple[int, ...], int, list[int],
                                              dict[int, Fraction], list[list[VaBundle]] | None]:
    """``(ranks, weights, den, best, slopes, table)`` of h, kept in its
    ``_oracle`` slot once r is checked against h's rank, so that a refused
    call binds nothing: slope_i = weights[i] / den, so the hot loops stay in
    integers; ``best`` is the oracle's row (``[0]`` until
    :func:`theta_oracle` grows it); ``slopes`` maps each slope numerator
    read so far to its ``Fraction(num, den)``, so each slope is built once;
    ``table`` is :func:`enumerate_va`'s block table, or None.  A type of at
    most ``_WHOLE_TABLE_BLOCKS`` blocks borrows the ``slopes`` dict of its
    den from ``_SHARED_SLOPES``, or a fresh one that replaces it if it is
    full; a larger type, or a den past the module's cap, gets a private one."""
    data = getattr(h, "_oracle", None)
    ranks = data[0] if data else tuple(p.rank for p in h.pieces)
    _require_quotient_rank(sum(ranks), r)
    if data is None:
        den, slopes = math.lcm(*ranks), {}
        if math.prod(c + 1 for c in ranks) <= _WHOLE_TABLE_BLOCKS:
            with _SHARED_LOCK:
                kept = _SHARED_SLOPES.get(den)
                if kept is not None and len(kept) < _SLOPES_PER_DEN:
                    slopes = kept
                elif kept is not None or len(_SHARED_SLOPES) < _SHARED_DENS:
                    _SHARED_SLOPES[den] = slopes
        data = ranks, tuple(p.degree * (den // p.rank) for p in h.pieces), den, [0], slopes, None
        object.__setattr__(h, "_oracle", data)
    return data


# A type keeps the blocks of every r from its second read by enumerate_va or
# theta_oracle on, when they number at most this many in all: prod(r_i + 1),
# the blocks of every r from 0 to rank, at about 200 bytes each (up to 0.9 MB).
_WHOLE_TABLE_BLOCKS = 4096


def _block_table(ranks: tuple[int, ...], weights: tuple[int, ...], den: int,
                 slopes: dict[int, Fraction]) -> list[list[VaBundle]]:
    """The blocks of every r, bucketed by r: a mixed-radix count over
    0 <= a_i <= ranks[i] in lexicographic order, which each bucket keeps.
    A step raises the last digit below its cap and clears the full digits
    after it, which leaves the rank as it is, since comb(c, c) == comb(c, 0)."""
    buckets: list[list[VaBundle]] = [[] for _ in range(sum(ranks) + 1)]
    new = tuple.__new__  # VaBundle.__new__ only packs its fields, in Python
    a = [0] * len(ranks)
    rank, num, units = 1, 0, 0
    while True:
        total = rank * num
        if total % den:
            raise AssertionError("exterior-power degree must be an integer")
        slope = slopes.get(num)
        if slope is None:
            slopes[num] = slope = Fraction(num, den)
        buckets[units].append(new(VaBundle, (tuple(a), rank, total // den, slope)))
        i = len(a) - 1
        while a[i] == ranks[i]:
            num -= a[i] * weights[i]
            units -= a[i]
            a[i] = 0
            i -= 1
            if i < 0:
                return buckets
        k = a[i]
        rank = rank * (ranks[i] - k) // (k + 1)
        num += weights[i]
        units += 1
        a[i] = k + 1


def enumerate_va(h: HNType, r: int) -> list[VaBundle]:
    """All exterior-power blocks for quotient dimension r, one per
    composition, in lexicographic order of the composition.  A call on an
    unread type walks r alone; once this or :func:`theta_oracle` has read
    the type, a call keeps the blocks of every r in its slot when they
    number at most ``_WHOLE_TABLE_BLOCKS``, and then returns a new list of r's."""
    data = getattr(h, "_oracle", None)  # None on the type's first read
    ranks, weights, den, _, slopes, table = _oracle_data(h, r)
    if table is None and data and math.prod(c + 1 for c in ranks) <= _WHOLE_TABLE_BLOCKS:
        table = _block_table(ranks, weights, den, slopes)
        object.__setattr__(h, "_oracle", h._oracle[:5] + (table,))
    if table is not None:
        return table[r][:]
    new = tuple.__new__
    out: list[VaBundle] = []
    for a, rank, num in _bounded_compositions(ranks, weights, r):
        total = rank * num
        if total % den:
            raise AssertionError("exterior-power degree must be an integer")
        slope = slopes.get(num)  # blocks share few slope sums
        if slope is None:
            slopes[num] = slope = Fraction(num, den)
        out.append(new(VaBundle, (a, rank, total // den, slope)))
    return out


def _oracle_row(ranks: tuple[int, ...], weights: tuple[int, ...], top: int) -> list[int]:
    """``best[j]`` for j = 0..top: the least slope numerator over j units
    with at most ranks[i] from piece i, by dynamic programming over (piece,
    units used).  Each piece (c, w) relaxes the row of the pieces before it
    with a = 1..min(c, top) of its units, so no piece's rank sizes the work,
    and the row stops at the units seen so far, so every entry is reachable."""
    best = [0]
    for c, w in zip(ranks, weights):
        prev, seen = best, len(best) - 1  # units within reach so far, at most top
        best = prev[:]
        for a in range(1, min(c, top) + 1):
            aw = a * w
            for j in range(a, min(top, seen + a - 1) + 1):
                v = prev[j - a] + aw
                if v < best[j]:
                    best[j] = v
            if seen + a <= top:  # first reached with a units of this piece
                best.append(prev[seen] + aw)
    return best


def _oracle_steps(h: HNType, top: int) -> int:
    """An upper bound on the inner steps of :func:`_oracle_row` up to ``top``:
    each piece relaxes at most ``top`` entries for each of its min(r_i, top) unit counts."""
    return top * sum(min(p.rank, top) for p in h.pieces)


# A row of at most this many steps is built whole.  Measured on CPython
# 3.11 (2-vCPU VM), such a row takes at most about 40 us, most of it a fixed
# cost per piece: for 16 rank-1 pieces the whole row (240 steps) took 37 us,
# the row to r = 1 23 us and to r = 2 32 us, so a type asked for a second r
# already gains.
_WHOLE_ROW_STEPS = 256
ORACLE_LIMIT = 4_000_000  # _oracle_steps of the largest row theta_oracle builds


def _oracle_top(h: HNType, r: int, top: int = 0) -> tuple[int, int]:
    """Where :func:`theta_oracle` ends the row it builds for r, when the
    type's row ends at top < r, and that row's ``_oracle_steps``: at
    rank - 1 when that whole row takes at most ``_WHOLE_ROW_STEPS`` steps,
    and otherwise at ``min(rank - 1, max(r, 2 * top))``, so that a large
    type's row doubles, a first call builds only to r, and every r together
    take O(units * rank) steps."""
    last = sum(p.rank for p in h.pieces) - 1
    steps = _oracle_steps(h, last)
    if steps <= _WHOLE_ROW_STEPS:
        return last, steps
    top = min(last, max(r, 2 * top))
    return top, steps if top == last else _oracle_steps(h, top)


def theta_oracle(h: HNType, r: int) -> Fraction:
    """Exhaustive minimum of slope sums over every composition, read from
    the type's oracle row and slope table.  A call past the row's end
    rebuilds the row to :func:`_oracle_top`, or raises LimitExceededError
    first, naming r, the row's end and its steps, if that row takes more
    than ``ORACLE_LIMIT`` steps.  It reads only the ranks and slopes, not
    the polygon or the ``_theta`` slot, and does not assume the slope order,
    so it shares no logic with the closed form in :func:`theta`; the two are
    meant to check each other."""
    ranks, weights, den, best, slopes, _ = _oracle_data(h, r)
    if r >= len(best):
        top, steps = _oracle_top(h, r, len(best) - 1)
        if steps > ORACLE_LIMIT:
            raise LimitExceededError(f"theta_oracle at r = {_shown(r)} would build its row to "
                                     f"{_shown(top)} in {_shown(steps)} steps, more than "
                                     f"{ORACLE_LIMIT} oracle steps")
        best = _oracle_row(ranks, weights, top)
        # the slope table and block table ride along from the slot as it is now
        object.__setattr__(h, "_oracle", (ranks, weights, den, best) + h._oracle[4:])
    num = best[r]
    value = slopes.get(num)
    if value is None:
        slopes[num] = value = Fraction(num, den)
    return value
