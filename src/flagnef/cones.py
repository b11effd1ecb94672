"""Exact Neron-Severi coordinates and nef cones of Grassmann and flag bundles.

Over a curve, the real Neron-Severi space of a flag bundle with quotient
dimensions r_1 < ... < r_nu has rank nu + 1, with basis the pullbacks
O_1, ..., O_nu of the tautological classes of the Grassmann bundles
Gr_{r_i}(E) together with the fiber class L (pullback of a degree-one line
bundle on the base).  The nef cone is simplicial: ray i is the primitive
vector (..., u_i, ..., v_i) on (p_delta * e_i, -theta(r_i)), with theta the
threshold invariant of the (stabilized) type and p_delta the Frobenius
normalization (1 in characteristic zero), and the last ray is L.  A class
sum_i x_i * O_i + y * L is nef iff its coordinates in the ray basis are >= 0:

    every x_i >= 0   and   y - sum_i v_i * x_i / u_i >= 0,

read off the rays a cone holds, in integers.  A Grassmann bundle is the case
nu = 1, with basis O(1) and L.  ``Fraction`` values appear only in the results.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidFlagTypeError,
    LimitExceededError,
)
from .hn import CHAR_ZERO, FieldContext, HNType, _checked_tuple, _shown, as_fraction
from .theta import _theta_value

# Quotient dimensions of one flag cone, and of one --flag: the cone has nu rays of
# nu + 1 entries, 4 million at nu = 2000, built in about 0.2 s (CPython 3.11, 2-vCPU VM).
NU_LIMIT = 2000


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


class NSClassGr(_checked_tuple("NSClassGr", [("x", Fraction), ("y", Fraction)])):
    """x * O(1) + y * L in the rank-two lattice of a Grassmann bundle."""

    __slots__ = ()

    def __new__(cls, x: Fraction | int | str, y: Fraction | int | str) -> "NSClassGr":
        return tuple.__new__(cls, (as_fraction(x), as_fraction(y)))


class RayGr(_checked_tuple("RayGr", [("u", int), ("v", int)])):
    """Primitive integer ray (u, v) with u >= 0, in the {O(1), L} basis."""

    __slots__ = ()

    def __new__(cls, u: int, v: int) -> "RayGr":
        if not isinstance(u, int) or not isinstance(v, int):
            raise TypeError("ray coordinates must be integers")
        if u < 0 or math.gcd(u, v) != 1:  # gcd(0, 0) == 0
            if u == v == 0:
                raise ValueError("the zero vector spans no ray")
            raise ValueError(f"({_shown(u)}, {_shown(v)}) is not a normalized primitive ray")
        return tuple.__new__(cls, (u, v))


class ConeDescriptionGr(NamedTuple):
    """Nef cone of a Grassmann bundle.

    ``fiber_ray`` is always (0, 1); ``theta_ray`` is the primitive vector on
    the ray through (p_delta, -theta_used).
    """

    fiber_ray: RayGr
    theta_ray: RayGr
    theta_used: Fraction
    p_delta: int


_FIBER_RAY = RayGr(0, 1)


def grassmann_nef_cone(h: HNType, r: int, ctx: FieldContext = CHAR_ZERO) -> ConeDescriptionGr:
    """Extremal rays of the nef cone of the rank-r Grassmann bundle.

    In characteristic p the caller passes the delta-stabilized type together
    with (p, delta); the tautological-side ray then sits at (p**delta, -theta).
    """
    _, num, den, value = _theta_value(h, r)
    pd = ctx.p_delta
    u = pd * den
    g = math.gcd(u, num)
    ray = RayGr(u // g, -num // g)
    return tuple.__new__(ConeDescriptionGr, (_FIBER_RAY, ray, value, pd))


def _not_a_ray(ray: tuple[int, ...], i: int) -> ValueError:
    """The error for a hand-built cone whose ray has entry i <= 0: no nef-cone ray does."""
    shown = ", ".join(map(_shown, ray))
    return ValueError(f"({shown}) is not a nef-cone ray: its entry {i + 1} must be positive")


def is_nef_gr(c: NSClassGr, cone: ConeDescriptionGr) -> bool:
    """Exact nef test, boundary included: x >= 0 and u * y - v * x >= 0 for the theta ray (u, v).
    A theta ray with u <= 0 raises ValueError."""
    xn, xd = c.x.as_integer_ratio()
    yn, yd = c.y.as_integer_ratio()
    u, v = cone.theta_ray
    if u <= 0:
        raise _not_a_ray(cone.theta_ray, 0)
    return xn >= 0 and u * yn * xd - v * xn * yd >= 0


def is_ample_gr(c: NSClassGr, cone: ConeDescriptionGr) -> bool:
    """Strict interior of the nef cone: x > 0 and u * y - v * x > 0."""
    xn, xd = c.x.as_integer_ratio()
    yn, yd = c.y.as_integer_ratio()
    u, v = cone.theta_ray
    if u <= 0:
        raise _not_a_ray(cone.theta_ray, 0)
    return xn > 0 and u * yn * xd - v * xn * yd > 0


class FlagType(_checked_tuple("FlagType", [("quotient_dims", tuple)])):
    """Strictly increasing quotient dimensions r_1 < ... < r_nu of a flag bundle."""

    __slots__ = ()

    def __new__(cls, quotient_dims: Iterable[int]) -> "FlagType":
        dims = tuple(quotient_dims)
        if not dims:
            raise InvalidFlagTypeError("a flag type needs at least one quotient dimension")
        for d in dims:
            if not isinstance(d, int):
                raise TypeError("quotient dimensions must be integers")
            if d < 1:
                raise InvalidFlagTypeError(f"quotient dimensions must be >= 1, got {_shown(d)}")
        for a, b in zip(dims, dims[1:]):
            if a >= b:
                raise InvalidFlagTypeError(
                    f"quotient dimensions must strictly increase, got {_shown(a)} then {_shown(b)}"
                )
        return tuple.__new__(cls, (dims,))

    @property
    def nu(self) -> int:
        return len(self.quotient_dims)


class NSClassFlag(_checked_tuple("NSClassFlag", [("x", tuple), ("y", Fraction)])):
    """sum_i x_i * O_i + y * L in the rank-(nu+1) lattice of a flag bundle."""

    __slots__ = ()

    def __new__(cls, x: Iterable[Fraction | int | str], y: Fraction | int | str) -> "NSClassFlag":
        if isinstance(x, (str, bytes)):
            raise TypeError(f"x must be an iterable of rationals, not {type(x).__name__}")
        return tuple.__new__(cls, (tuple(as_fraction(v) for v in x), as_fraction(y)))


class ConeDescriptionFlag(NamedTuple):
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
    class.  A flag of more than ``NU_LIMIT`` quotient dimensions raises
    LimitExceededError before any ray is built.
    """
    if fl.quotient_dims[-1] >= h.rank:
        raise InvalidFlagTypeError(
            f"largest quotient dimension {_shown(fl.quotient_dims[-1])} must be < rank "
            f"{_shown(h.rank)}"
        )
    nu = fl.nu
    if nu > NU_LIMIT:
        raise LimitExceededError(f"a flag nef cone takes at most {NU_LIMIT} quotient dimensions, "
                                 f"got {nu}")
    pd = ctx.p_delta
    rays, thetas = [], []
    for i, r_i in enumerate(fl.quotient_dims):
        _, num, den, value = _theta_value(h, r_i)
        u = pd * den
        g = math.gcd(u, num)
        rays.append((0,) * i + (u // g,) + (0,) * (nu - 1 - i) + (-num // g,))
        thetas.append(value)
    rays.append((0,) * nu + (1,))
    return tuple.__new__(ConeDescriptionFlag, (fl, tuple(rays), tuple(thetas), pd))


def is_nef_flag(c: NSClassFlag, cone: ConeDescriptionFlag) -> bool:
    """Exact nef test in the flag lattice: every x_i >= 0 and
    y - sum_i v_i * x_i / u_i >= 0 for the rays (..., u_i, ..., v_i).  A cone
    without nu + 1 rays, or with a ray whose u_i <= 0, raises ValueError."""
    nu = cone.flag.nu
    if len(c.x) != nu:
        raise DimensionMismatchError(
            f"class has {len(c.x)} tautological coordinates, cone expects {nu}"
        )
    if len(cone.rays) != nu + 1:
        raise ValueError(f"a flag nef cone has nu + 1 = {nu + 1} rays, got {len(cone.rays)}")
    for i, ray in enumerate(cone.rays[:nu]):
        if ray[i] <= 0:
            raise _not_a_ray(ray, i)
    num, den = 0, 1  # sum_i v_i * x_i / u_i, over den > 0
    for i, (x, ray) in enumerate(zip(c.x, cone.rays)):
        n, d = x.as_integer_ratio()
        if n < 0:
            return False
        d *= ray[i]
        num, den = num * d + ray[-1] * n * den, den * d
    yn, yd = c.y.as_integer_ratio()
    return yn * den - num * yd >= 0


def pullback_to_flag(i: int, c: NSClassGr, fl: FlagType) -> NSClassFlag:
    """Pull a Grassmann class back along the projection to the i-th factor
    (1-based): x lands in slot i, y in the fiber slot, zeros elsewhere."""
    if not isinstance(i, int):
        raise TypeError("factor index must be an integer")
    if i < 1 or i > fl.nu:
        raise IndexOutOfRangeError(f"factor index must lie in [1, {fl.nu}], got {_shown(i)}")
    xs = [Fraction(0)] * fl.nu
    xs[i - 1] = c.x
    return NSClassFlag(x=tuple(xs), y=c.y)
