"""Exact Neron-Severi coordinates and nef cones of Grassmann and flag bundles.

Over a curve, the real Neron-Severi space of a Grassmann bundle has rank two,
with basis the tautological class O(1) and the fiber class L (pullback of a
degree-one line bundle on the base).  For a flag bundle with nu quotient
dimensions it has rank nu + 1, with basis the pullbacks O_1, ..., O_nu of the
tautological classes of the individual Grassmann bundles together with L.

The nef cones are simplicial.  They are emitted as primitive integer extremal
rays, and membership is decided by closed-form exact inequalities: a class
(x, y) on the Grassmann bundle is nef iff

    x >= 0   and   p_delta * y + theta * x >= 0,

where theta is the threshold invariant of the (stabilized) type and p_delta
the Frobenius normalization (1 in characteristic zero).  The flag cone uses
one such x-inequality per factor and the combined y-law.

Rays and verdicts are computed from the numerators and denominators of the
invariants and classes, in integer arithmetic; ``Fraction`` values appear
only as fields of the returned descriptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidFlagTypeError,
)
from .hn import CHAR_ZERO, FieldContext, HNType, as_fraction
from .theta import theta


def primitive_ray(coords: Iterable[Fraction | int]) -> tuple[int, ...]:
    """Primitive integer vector spanning the same ray as ``coords``.

    Clears denominators and divides by the gcd; the direction is preserved.
    """
    fracs = [as_fraction(c) for c in coords]
    den = math.lcm(*(f.denominator for f in fracs))
    ints = [f.numerator * (den // f.denominator) for f in fracs]
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("the zero vector spans no ray")
    return tuple(v // g for v in ints)


@dataclass(frozen=True)
class NSClassGr:
    """x * O(1) + y * L in the rank-two lattice of a Grassmann bundle."""

    x: Fraction
    y: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", as_fraction(self.x))
        object.__setattr__(self, "y", as_fraction(self.y))


@dataclass(frozen=True)
class RayGr:
    """Primitive integer ray (u, v) with u >= 0, in the {O(1), L} basis."""

    u: int
    v: int

    def __post_init__(self) -> None:
        if not isinstance(self.u, int) or not isinstance(self.v, int):
            raise TypeError("ray coordinates must be integers")
        if (self.u, self.v) == (0, 0):
            raise ValueError("the zero vector spans no ray")
        if self.u < 0 or math.gcd(self.u, self.v) != 1:
            raise ValueError(f"({self.u}, {self.v}) is not a normalized primitive ray")


@dataclass(frozen=True)
class ConeDescriptionGr:
    """Nef cone of a Grassmann bundle.

    ``fiber_ray`` is always (0, 1); ``theta_ray`` is the primitive vector on
    the ray through (p_delta, -theta_used).
    """

    fiber_ray: RayGr
    theta_ray: RayGr
    theta_used: Fraction
    p_delta: int


def _theta_ray(pd: int, value: Fraction) -> tuple[int, int]:
    """Primitive (u, v) on the ray through (pd, -value): with value = a/b in
    lowest terms, (pd*b, -a) divided by their gcd."""
    a, b = value.numerator, value.denominator
    g = math.gcd(pd * b, a)
    return pd * b // g, -a // g


def _law(pd: int, thetas: Iterable[Fraction], xs: Iterable[Fraction], y: Fraction) -> int:
    """An integer with the sign of p_delta*y + sum_i theta_i*x_i: its
    numerator over a positive common denominator."""
    num, den = pd * y.numerator, y.denominator
    for t, x in zip(thetas, xs):
        d = t.denominator * x.denominator
        num = num * d + t.numerator * x.numerator * den
        den *= d
    return num


_FIBER_RAY = RayGr(0, 1)


def grassmann_nef_cone(h: HNType, r: int, ctx: FieldContext = CHAR_ZERO) -> ConeDescriptionGr:
    """Extremal rays of the nef cone of the rank-r Grassmann bundle.

    In characteristic p the caller passes the delta-stabilized type together
    with (p, delta); the tautological-side ray then sits at (p**delta, -theta).
    """
    value = theta(h, r).theta
    pd = ctx.p_delta
    return ConeDescriptionGr(
        fiber_ray=_FIBER_RAY, theta_ray=RayGr(*_theta_ray(pd, value)), theta_used=value, p_delta=pd
    )


def is_nef_gr(c: NSClassGr, cone: ConeDescriptionGr) -> bool:
    """Exact nef test; boundary classes count as nef."""
    return c.x.numerator >= 0 and _law(cone.p_delta, (cone.theta_used,), (c.x,), c.y) >= 0


def is_ample_gr(c: NSClassGr, cone: ConeDescriptionGr) -> bool:
    """Strict interior of the nef cone."""
    return c.x.numerator > 0 and _law(cone.p_delta, (cone.theta_used,), (c.x,), c.y) > 0


@dataclass(frozen=True)
class FlagType:
    """Strictly increasing quotient dimensions r_1 < ... < r_nu of a flag bundle."""

    quotient_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(self.quotient_dims)
        object.__setattr__(self, "quotient_dims", dims)
        if not dims:
            raise InvalidFlagTypeError("a flag type needs at least one quotient dimension")
        for d in dims:
            if not isinstance(d, int):
                raise TypeError("quotient dimensions must be integers")
            if d < 1:
                raise InvalidFlagTypeError(f"quotient dimensions must be >= 1, got {d}")
        for a, b in zip(dims, dims[1:]):
            if a >= b:
                raise InvalidFlagTypeError(
                    f"quotient dimensions must strictly increase, got {a} then {b}"
                )

    @property
    def nu(self) -> int:
        return len(self.quotient_dims)


@dataclass(frozen=True)
class NSClassFlag:
    """sum_i x_i * O_i + y * L in the rank-(nu+1) lattice of a flag bundle."""

    x: tuple[Fraction, ...]
    y: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", tuple(as_fraction(v) for v in self.x))
        object.__setattr__(self, "y", as_fraction(self.y))


@dataclass(frozen=True)
class ConeDescriptionFlag:
    """Nef cone of a flag bundle: one ray per quotient dimension plus the
    fiber ray, listed with the fiber ray last."""

    flag: FlagType
    rays: tuple[tuple[int, ...], ...]
    thetas_used: tuple[Fraction, ...]
    p_delta: int


def flag_nef_cone(h: HNType, fl: FlagType, ctx: FieldContext = CHAR_ZERO) -> ConeDescriptionFlag:
    """Extremal rays of the nef cone of the flag bundle Fl(E) over the curve.

    Ray i is the primitive vector on (p_delta * e_i, -theta_i) where theta_i
    is the invariant at quotient dimension r_i; the last ray is the fiber
    class.
    """
    if fl.quotient_dims[-1] >= h.rank:
        raise InvalidFlagTypeError(
            f"largest quotient dimension {fl.quotient_dims[-1]} must be < rank {h.rank}"
        )
    pd = ctx.p_delta
    nu = fl.nu
    thetas = tuple(theta(h, r_i).theta for r_i in fl.quotient_dims)
    rays = []
    for i, value in enumerate(thetas):
        u, v = _theta_ray(pd, value)
        rays.append((0,) * i + (u,) + (0,) * (nu - 1 - i) + (v,))
    rays.append((0,) * nu + (1,))
    return ConeDescriptionFlag(flag=fl, rays=tuple(rays), thetas_used=thetas, p_delta=pd)


def is_nef_flag(c: NSClassFlag, cone: ConeDescriptionFlag) -> bool:
    """Exact nef test in the flag lattice."""
    if len(c.x) != cone.flag.nu:
        raise DimensionMismatchError(
            f"class has {len(c.x)} tautological coordinates, cone expects {cone.flag.nu}"
        )
    if any(xi.numerator < 0 for xi in c.x):
        return False
    return _law(cone.p_delta, cone.thetas_used, c.x, c.y) >= 0


def pullback_to_flag(i: int, c: NSClassGr, fl: FlagType) -> NSClassFlag:
    """Pull a Grassmann class back along the projection to the i-th factor
    (1-based): x lands in slot i, y in the fiber slot, zeros elsewhere."""
    if not isinstance(i, int):
        raise TypeError("factor index must be an integer")
    if i < 1 or i > fl.nu:
        raise IndexOutOfRangeError(f"factor index must lie in [1, {fl.nu}], got {i}")
    xs = [Fraction(0)] * fl.nu
    xs[i - 1] = c.x
    return NSClassFlag(x=tuple(xs), y=c.y)
