"""Deterministic enumeration of all small HN types within given bounds.

Used by the CLI self-check and by the test suite.  The order is fixed:
total rank ascending, then rank composition lexicographically, then degree
tuples lexicographically.
"""

from __future__ import annotations

from typing import Iterator

from .hn import HNPiece, HNType


def _rank_compositions(n: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of positive integers summing to n, lexicographically."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _rank_compositions(n - first):
            yield (first,) + rest


def _assign_degrees(ranks: tuple[int, ...], bound: int) -> Iterator[HNType]:
    d = len(ranks)

    def rec(i: int, acc: list[HNPiece]) -> Iterator[HNType]:
        if i == d:
            yield HNType(tuple(acc))
            return
        for deg in range(-bound, bound + 1):
            # the slope order, cross-multiplied as HNType checks it
            if acc and deg * acc[-1].rank >= acc[-1].degree * ranks[i]:
                break  # degrees ascend, so all later slopes fail too
            acc.append(HNPiece(ranks[i], deg))
            yield from rec(i + 1, acc)
            acc.pop()

    yield from rec(0, [])


def iter_hn_types(max_rank: int = 6, max_abs_degree: int = 4) -> Iterator[HNType]:
    """Every HN type with total rank <= max_rank and every piece degree in
    [-max_abs_degree, max_abs_degree]."""
    for n in range(1, max_rank + 1):
        for ranks in _rank_compositions(n):
            yield from _assign_degrees(ranks, max_abs_degree)
