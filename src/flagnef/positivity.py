"""Positivity of the tautological class and the relative anticanonical test.

The sign of the threshold invariant decides everything for the tautological
class on a Grassmann bundle: positive means ample, zero means nef but not
ample, negative means not nef.  The relative anticanonical class is nef
exactly when the type is semistable (a single piece), and never lies in the
interior of the nef cone.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .cones import NSClassGr
from .hn import HNType, _require_quotient_rank
from .theta import _theta_value


class PositivityClass(enum.Enum):
    """Trichotomy for a line bundle class."""

    AMPLE = "ample"
    NEF_NOT_AMPLE = "nef_not_ample"
    NOT_NEF = "not_nef"

    @classmethod
    def of(cls, theta_value: Fraction | int) -> "PositivityClass":
        """Class of the tautological line bundle whose threshold invariant
        is ``theta_value``, or has it as numerator over a positive
        denominator: the sign decides."""
        n = theta_value.numerator
        return _AMPLE if n > 0 else _NEF_NOT_AMPLE if n == 0 else _NOT_NEF


_AMPLE, _NEF_NOT_AMPLE, _NOT_NEF = PositivityClass


def classify_tautological(h: HNType, r: int) -> PositivityClass:
    """Positivity class of the tautological line bundle on the rank-r
    Grassmann bundle.

    Total in the sign of the invariant; since Frobenius and cover pullbacks
    scale the invariant by positive factors, the verdict does not depend on
    the chosen stabilization exponent.
    """
    return PositivityClass.of(_theta_value(h, r)[1])  # theta's numerator over r_t > 0


def relative_anticanonical_class(h: HNType, r: int) -> NSClassGr:
    """Class of the relative anticanonical bundle of the rank-r Grassmann
    bundle: n * O(1) - r * deg * L, with n and deg the rank and degree of the
    bundle the type describes.

    This is det of the relative tangent bundle Hom(S, Q); for a single
    semistable piece it reduces to the classical O(n) twisted down by r
    copies of the determinant.
    """
    _require_quotient_rank(h.rank, r)
    return NSClassGr(h.rank, -r * h.degree)


def anticanonical_is_nef(h: HNType, r: int) -> bool:
    """Nef test for the relative anticanonical class; true exactly when the
    type has a single piece (the bundle is semistable, strongly so in
    characteristic p).

    The class is (n, -r * deg), so by the cone law it is nef iff
    theta(r) >= r * mu, with mu = deg / n.  But theta(r) / r is the mean
    slope of the bottom r ranks, which equals mu for a single piece and lies
    below it otherwise.
    """
    if type(r) is not int or not 0 < r < h.rank:  # an exact int in range skips the check
        _require_quotient_rank(h.rank, r)
    return len(h.pieces) == 1
