"""Numerical Harder-Narasimhan types and the transforms acting on them.

A vector bundle on a smooth projective curve enters the library only through
the numerical type of its Harder-Narasimhan filtration: the ordered list of
(rank, degree) pairs of the semistable graded pieces, with strictly
decreasing slopes.  All arithmetic is exact, using arbitrary-precision
integers and :class:`fractions.Fraction`; no floating point appears anywhere.

Each type carries its quotient polygon, built on first use: the cumulative
(rank, degree) vertices of the pieces from the bottom of the filtration
upward (the Harder-Narasimhan, or Shatz, polygon read from below).  The
threshold invariant and both nef cones read it in integer arithmetic.

Values are immutable after construction and every operation is a pure
function, so the module is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple

from .errors import (
    CharZeroContextError,
    EmptyTypeError,
    InvalidFieldContextError,
    NonDecreasingSlopesError,
    NonPositiveCoverDegreeError,
    NonPositiveRankError,
)


def as_fraction(value: int | str | Fraction) -> Fraction:
    """Coerce ``value`` to an exact rational.  Floats are rejected."""
    if isinstance(value, float):
        raise TypeError("floats are not allowed in exact computations")
    return Fraction(value)


# Miller-Rabin with the first 13 prime bases decides primality exactly for
# every n below this bound (Sorenson and Webster, Math. Comp. 86, 2017).
PRIME_BOUND = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Exact primality test for n < PRIME_BOUND."""
    if n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class HNPiece:
    """One semistable graded piece: rank r_i >= 1 and integer degree d_i."""

    rank: int
    degree: int

    def __post_init__(self) -> None:
        if not isinstance(self.rank, int) or not isinstance(self.degree, int):
            raise TypeError("rank and degree must be integers")
        if self.rank < 1:
            raise NonPositiveRankError(f"piece rank must be positive, got {self.rank}")

    @property
    def slope(self) -> Fraction:
        return Fraction(self.degree, self.rank)


@dataclass(frozen=True)
class FieldContext:
    """Characteristic data of the base field.

    ``p == 0`` means characteristic zero.  In characteristic p > 0 the pair
    (p, delta) declares that the accompanying HN type already describes the
    bundle after ``delta`` Frobenius pullbacks, so that every graded piece is
    strongly semistable.  The stabilization exponent delta cannot be computed
    from numerical data; it is part of the input.
    """

    p: int = 0
    delta: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or not isinstance(self.delta, int):
            raise TypeError("p and delta must be integers")
        if self.p == 0:
            if self.delta != 0:
                raise InvalidFieldContextError("delta must be 0 in characteristic zero")
        else:
            if self.p >= PRIME_BOUND:
                raise InvalidFieldContextError(
                    f"characteristic must be below {PRIME_BOUND}, got {self.p}"
                )
            if not _is_prime(self.p):
                raise InvalidFieldContextError(
                    f"characteristic must be 0 or a prime, got {self.p}"
                )
            if self.delta < 0:
                raise InvalidFieldContextError(f"delta must be >= 0, got {self.delta}")

    @property
    def is_char_p(self) -> bool:
        return self.p != 0

    @property
    def p_delta(self) -> int:
        """Degree-scaling factor p**delta (1 in characteristic zero)."""
        return self.p**self.delta if self.p else 1


CHAR_ZERO = FieldContext()


class Polygon(NamedTuple):
    """Quotient polygon of an HN type: vertex k is (ranks[k], degrees[k]),
    the total rank and degree of the bottom k pieces, for k = 0..len(type)."""

    ranks: tuple[int, ...]
    degrees: tuple[int, ...]


@dataclass(frozen=True)
class HNType:
    """Ordered graded pieces with strictly decreasing slopes."""

    pieces: tuple[HNPiece, ...]

    def __post_init__(self) -> None:
        pieces = tuple(self.pieces)
        object.__setattr__(self, "pieces", pieces)
        if not pieces:
            raise EmptyTypeError("an HN type needs at least one piece")
        for piece in pieces:
            if not isinstance(piece, HNPiece):
                raise TypeError("pieces must be HNPiece instances")
        for i, (a, b) in enumerate(zip(pieces, pieces[1:]), start=1):
            if a.degree * b.rank <= b.degree * a.rank:
                raise NonDecreasingSlopesError(
                    f"slopes must strictly decrease, but mu_{i} = "
                    f"{a.slope} <= mu_{i + 1} = {b.slope}"
                )

    @classmethod
    def _trusted(cls, pieces: tuple[HNPiece, ...]) -> "HNType":
        """A type from pieces already known to have strictly decreasing
        slopes; skips validation."""
        h = object.__new__(cls)
        object.__setattr__(h, "pieces", pieces)
        return h

    def __len__(self) -> int:
        return len(self.pieces)

    @cached_property
    def polygon(self) -> Polygon:
        ranks, degrees = [0], [0]
        for p in reversed(self.pieces):
            ranks.append(ranks[-1] + p.rank)
            degrees.append(degrees[-1] + p.degree)
        return Polygon(tuple(ranks), tuple(degrees))

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(p.rank for p in self.pieces)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(p.degree for p in self.pieces)

    @property
    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(p.slope for p in self.pieces)

    @property
    def rank(self) -> int:
        return self.polygon.ranks[-1]

    @property
    def degree(self) -> int:
        return self.polygon.degrees[-1]

    @property
    def slope(self) -> Fraction:
        return Fraction(self.degree, self.rank)

    # The transforms below keep the strict slope order, so their results are
    # built without validation.

    def dual(self) -> "HNType":
        """Numerical dual: reverse the pieces and negate every degree."""
        return HNType._trusted(tuple(HNPiece(p.rank, -p.degree) for p in reversed(self.pieces)))

    def twist(self, m: int) -> "HNType":
        """Tensor with a degree-m line bundle: every slope shifts by m."""
        if not isinstance(m, int):
            raise TypeError("twist degree must be an integer")
        return HNType._trusted(tuple(HNPiece(p.rank, p.degree + p.rank * m) for p in self.pieces))

    def cover_pullback(self, m: int) -> "HNType":
        """Pull back along a degree-m cover of the base curve: degrees scale by m."""
        if not isinstance(m, int):
            raise TypeError("cover degree must be an integer")
        if m < 1:
            raise NonPositiveCoverDegreeError(f"cover degree must be >= 1, got {m}")
        return HNType._trusted(tuple(HNPiece(p.rank, m * p.degree) for p in self.pieces))

    def frobenius_pullback(self, ctx: FieldContext) -> "HNType":
        """Scale degrees by p**delta.

        Only meaningful in positive characteristic, under the FieldContext
        contract that the pieces are strongly semistable (so the filtration
        itself pulls back).
        """
        if not ctx.is_char_p:
            raise CharZeroContextError("Frobenius pullback needs positive characteristic")
        factor = ctx.p_delta
        return HNType._trusted(tuple(HNPiece(p.rank, factor * p.degree) for p in self.pieces))


def make_hn_type(pieces: Iterable[tuple[int, int]]) -> HNType:
    """Validated HN type from an ordered list of (rank, degree) pairs.

    Pairs with equal slopes are rejected rather than merged: the filtration
    is unique with strictly decreasing slopes, and silent merging would hide
    input mistakes.  Use :func:`hn_from_splitting_type` for the lenient path.
    """
    pairs = list(pieces)
    if not pairs:
        raise EmptyTypeError("an HN type needs at least one piece")
    return HNType(tuple(HNPiece(rank, degree) for rank, degree in pairs))


def hn_from_splitting_type(degrees: Iterable[int]) -> HNType:
    """HN type of a direct sum of line bundles on the projective line, given
    the degrees of the summands in any order.

    Groups of m equal degrees a merge into one semistable piece (m, m*a).
    """
    ordered = sorted(degrees, reverse=True)
    if not ordered:
        raise EmptyTypeError("a splitting type needs at least one summand")
    if not all(isinstance(a, int) for a in ordered):
        raise TypeError("summand degrees must be integers")
    pieces = []
    for a, group in itertools.groupby(ordered):
        m = len(list(group))
        pieces.append(HNPiece(rank=m, degree=a * m))
    return HNType(tuple(pieces))
