"""Numerical Harder-Narasimhan types and the transforms acting on them.

A vector bundle on a smooth projective curve enters the library only through
the numerical type of its Harder-Narasimhan filtration: the ordered list of
(rank, degree) pairs of the semistable graded pieces, with strictly
decreasing slopes.  All arithmetic is exact, using arbitrary-precision
integers and :class:`fractions.Fraction`; no floating point appears anywhere.

Each type carries its quotient polygon, built with it (the
Harder-Narasimhan, or Shatz, polygon read from below), which the threshold
invariant and both nef cones read in integer arithmetic.

Values do not change once built, except the two private slots of a type
(see :class:`HNType`), which equality, hashing, ``repr``, copying and
pickling never read.  A fill is idempotent: it adds an entry whose value its
key fixes, or binds ``_oracle`` to a new tuple instead of mutating one.  So
a small rational may be shared, process-wide, by every type that reads it:
the closed form's values and the oracle's slopes each have their own store,
bounded by its keys (see :mod:`flagnef.theta`).  A tuple that a
concurrent bind drops is only built again (equal, if not the same object),
and a bound block table never changes (its callers get copies), so every
operation, a pure function, is safe for unrestricted concurrent use.  Pieces
and field contexts are named tuples whose fields are exactly their
constructors' checked arguments; they also compare equal to plain tuples of
those fields.  A checked value has one constructor, which runs every check in
one pass; a record that checks nothing (``Polygon``, the records of theta and
cones) is packed with ``tuple.__new__``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import groupby
from typing import Iterable, NamedTuple

from .errors import (
    CharZeroContextError,
    EmptyTypeError,
    InvalidFieldContextError,
    LimitExceededError,
    NonDecreasingSlopesError,
    NonPositiveCoverDegreeError,
    NonPositiveRankError,
    QuotientRankOutOfRangeError,
)


# A decimal with an exponent, as Fraction reads one: group 1 is the exponent.
_EXPONENT_DECIMAL = re.compile(r"\s*[-+]?(?=\d|\.\d)(?:\d+(?:_\d+)*)?(?:\.(?:\d+(?:_\d+)*)?)?"
                               r"[eE]([-+]?\d+(?:_\d+)*)\s*")


def as_fraction(value: int | str | Fraction) -> Fraction:
    """Coerce ``value`` to an exact rational.  Floats are rejected, and so is
    a string whose decimal exponent passes ``DIGIT_LIMIT`` in magnitude,
    before Fraction builds its power of 10."""
    if type(value) is Fraction:  # immutable: no copy
        return value
    if isinstance(value, str):  # isdecimal(): the digits (Unicode Nd) Fraction reads as \d
        if value.isdecimal():
            return Fraction(int(value))
        exponent = ("e" in value or "E" in value) and _EXPONENT_DECIMAL.fullmatch(value)
        if exponent and abs(int(exponent[1])) > DIGIT_LIMIT:
            raise LimitExceededError(f"a decimal exponent must lie in [-{DIGIT_LIMIT}, {DIGIT_LIMIT}]")
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError("floats are not allowed in exact computations")
    return Fraction(value)


# Miller-Rabin with the first 13 prime bases decides primality exactly for
# every n below this bound (Sorenson and Webster, Math. Comp. 86, 2017).
PRIME_BOUND = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Python's default int/str conversion limit: integers of more digits cannot
# be printed, so p**delta must stay below 10**DIGIT_LIMIT.
DIGIT_LIMIT = 4300
_P_DELTA_BOUND = 10**DIGIT_LIMIT


def _shown(value: int | Fraction) -> str:
    """``str(value)`` for an error message, but an integer too long for
    ``str`` appears by its size, as "<an integer of 5001 digits>"."""
    if value.denominator != 1:
        return f"{_shown(value.numerator)}/{_shown(value.denominator)}"
    try:
        return str(value)
    except ValueError:  # beyond the int/str conversion limit
        n = abs(value.numerator)
        digits = n.bit_length() * 1233 >> 12  # at most the number of digits
        while 10**digits <= n:
            digits += 1
        return f"<{'a negative' if value < 0 else 'an'} integer of {digits} digits>"


def _require_quotient_rank(n: int, r: int) -> None:
    """Check 1 <= r <= n - 1 for a type of total rank n."""
    if not isinstance(r, int):
        raise TypeError("quotient dimension r must be an integer")
    if r < 1 or r >= n:
        raise QuotientRankOutOfRangeError(
            f"quotient dimension must satisfy 1 <= r <= {_shown(n - 1)}, got {_shown(r)}"
        )


def _checked_tuple(name: str, fields: list[tuple[str, type]]) -> type:
    """Base of a named tuple whose subclass checks its fields in ``__new__``:
    the inherited ``_make``, and so ``_replace``, goes through that check."""
    base = NamedTuple(name, fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


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


class HNPiece(_checked_tuple("HNPiece", [("rank", int), ("degree", int)])):
    """One semistable graded piece: rank r_i >= 1 and integer degree d_i."""

    __slots__ = ()

    def __new__(cls, rank: int, degree: int) -> "HNPiece":
        if not isinstance(rank, int) or not isinstance(degree, int):
            raise TypeError("rank and degree must be integers")
        if rank < 1:
            raise NonPositiveRankError(f"piece rank must be positive, got {_shown(rank)}")
        return tuple.__new__(cls, (rank, degree))

    @property
    def slope(self) -> Fraction:
        return Fraction(self.degree, self.rank)


class FieldContext(_checked_tuple("FieldContext", [("p", int), ("delta", int)])):
    """Characteristic data of the base field.

    ``p == 0`` means characteristic zero.  In characteristic p > 0 the pair
    (p, delta) declares that the accompanying HN type already describes the
    bundle after ``delta`` Frobenius pullbacks, so that every graded piece is
    strongly semistable.  The stabilization exponent delta cannot be computed
    from numerical data; it is part of the input.
    """

    __slots__ = ()

    def __new__(cls, p: int = 0, delta: int = 0) -> "FieldContext":
        if not isinstance(p, int) or not isinstance(delta, int):
            raise TypeError("p and delta must be integers")
        if p == 0:
            if delta != 0:
                raise InvalidFieldContextError("delta must be 0 in characteristic zero")
            return tuple.__new__(cls, (0, 0))
        if p >= PRIME_BOUND:
            raise InvalidFieldContextError(
                f"characteristic must be below {PRIME_BOUND}, got {_shown(p)}"
            )
        if not _is_prime(p):
            raise InvalidFieldContextError(f"characteristic must be 0 or a prime, got {_shown(p)}")
        if delta < 0:
            raise InvalidFieldContextError(f"delta must be >= 0, got {_shown(delta)}")
        # p >= 2**(b - 1) for b = p.bit_length(), so a large (b - 1) * delta
        # rejects p**delta before it is built; otherwise it has few bits.
        if (p.bit_length() - 1) * delta > _P_DELTA_BOUND.bit_length() or p**delta >= _P_DELTA_BOUND:
            raise LimitExceededError(
                f"p**delta must be below 10**{DIGIT_LIMIT}, got {p}**{_shown(delta)}"
            )
        return tuple.__new__(cls, (p, delta))

    @property
    def p_delta(self) -> int:
        """The degree-scaling factor p**delta (1 in characteristic zero)."""
        return self.p**self.delta

    @property
    def is_char_p(self) -> bool:
        return self.p != 0


CHAR_ZERO = FieldContext()


class Polygon(NamedTuple):
    """Quotient polygon of an HN type: vertex k is (ranks[k], degrees[k]),
    the total rank and degree of the bottom k pieces, for k = 0..len(type)."""

    ranks: tuple[int, ...]
    degrees: tuple[int, ...]


class HNType:
    """Ordered graded pieces with strictly decreasing slopes, and their
    quotient polygon.  ``_theta`` is bound here to an empty dict and only
    added to, by theta's one reader, which alone knows its layout (see
    :mod:`flagnef.theta`).  ``_oracle`` is bound here to None, which marks
    a type no brute-force read has reached, by the oracle or the block walk;
    from a second read on it keeps all blocks.  Neither slot reads the
    other, so the closed form and the oracle still check each other."""

    __slots__ = ("pieces", "polygon", "_oracle", "_theta")
    pieces: tuple[HNPiece, ...]
    polygon: Polygon

    def __init__(self, pieces: Iterable[HNPiece]) -> None:
        pieces = tuple(pieces)
        if not pieces:
            raise EmptyTypeError("an HN type needs at least one piece")
        # One pass up; slope faults wait, so a non-piece comes first and the topmost is named.
        ranks, degrees = [0], [0]
        fault, below = 0, (0, -1)  # slope -infinity below the bottom piece
        for k, piece in enumerate(reversed(pieces)):
            if not isinstance(piece, HNPiece):
                raise TypeError("pieces must be HNPiece instances")
            c, d = piece
            if d * below[0] <= below[1] * c:
                fault = len(pieces) - k  # mu_fault <= mu_(fault + 1)
            below = piece
            ranks.append(ranks[-1] + c)
            degrees.append(degrees[-1] + d)
        if fault:
            a, b = pieces[fault - 1].slope, pieces[fault].slope
            raise NonDecreasingSlopesError(f"slopes must strictly decrease, but mu_{fault} = "
                                           f"{_shown(a)} <= mu_{fault + 1} = {_shown(b)}")
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "polygon", tuple.__new__(Polygon, (tuple(ranks), tuple(degrees))))
        object.__setattr__(self, "_theta", {})
        object.__setattr__(self, "_oracle", None)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        return self.pieces == other.pieces if isinstance(other, HNType) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.pieces)

    def __repr__(self) -> str:
        return f"HNType(pieces={self.pieces!r})"

    def __reduce__(self) -> tuple[type, tuple[tuple[HNPiece, ...]]]:  # copy and pickle
        return HNType, (self.pieces,)

    def __len__(self) -> int:
        return len(self.pieces)

    @property
    def rank(self) -> int:
        return self.polygon.ranks[-1]

    @property
    def degree(self) -> int:
        return self.polygon.degrees[-1]

    @property
    def slope(self) -> Fraction:
        return Fraction(self.degree, self.rank)

    def dual(self) -> "HNType":
        """Numerical dual: reverse the pieces and negate every degree."""
        return HNType([HNPiece(c, -d) for c, d in reversed(self.pieces)])

    def twist(self, m: int) -> "HNType":
        """Tensor with a degree-m line bundle: every slope shifts by m."""
        if not isinstance(m, int):
            raise TypeError("twist degree must be an integer")
        return HNType([HNPiece(c, d + c * m) for c, d in self.pieces])

    def cover_pullback(self, m: int) -> "HNType":
        """Pull back along a degree-m cover of the base curve: degrees scale by m."""
        if not isinstance(m, int):
            raise TypeError("cover degree must be an integer")
        if m < 1:
            raise NonPositiveCoverDegreeError(f"cover degree must be >= 1, got {_shown(m)}")
        return HNType([HNPiece(c, m * d) for c, d in self.pieces])

    def frobenius_pullback(self, ctx: FieldContext) -> "HNType":
        """Pull back along delta Frobenius steps: the degree-p**delta cover
        pullback.

        Only meaningful in positive characteristic, under the FieldContext
        contract that the pieces are strongly semistable (so the filtration
        itself pulls back).
        """
        if not ctx.is_char_p:
            raise CharZeroContextError("Frobenius pullback needs positive characteristic")
        return self.cover_pullback(ctx.p_delta)


def make_hn_type(pieces: Iterable[tuple[int, int]]) -> HNType:
    """Validated HN type from an ordered list of (rank, degree) pairs.

    Pairs with equal slopes are rejected rather than merged: the filtration
    is unique with strictly decreasing slopes, and silent merging would hide
    input mistakes.  Use :func:`hn_from_splitting_type` for the lenient path.
    """
    return HNType([HNPiece(rank, degree) for rank, degree in pieces])


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
    runs = [(len(list(group)), a) for a, group in groupby(ordered)]
    return HNType([HNPiece(m, m * a) for m, a in runs])
