"""Exact positivity invariants and nef cones of Grassmann and flag bundles
over a smooth projective curve, from numerical Harder-Narasimhan data.

All computations are exact: arbitrary-precision integers and rationals, no
floating point.  Bundles are represented purely by the (rank, degree) data of
their Harder-Narasimhan graded pieces; in positive characteristic the input
is the Frobenius-stabilized type together with the pair (p, delta).
"""

from .cones import (
    ConeDescriptionFlag,
    ConeDescriptionGr,
    FlagType,
    NSClassFlag,
    NSClassGr,
    RayGr,
    flag_nef_cone,
    grassmann_nef_cone,
    is_ample_gr,
    is_nef_flag,
    is_nef_gr,
    primitive_ray,
    pullback_to_flag,
)
from .errors import (
    CharZeroContextError,
    DimensionMismatchError,
    EmptyTypeError,
    FlagnefError,
    IndexOutOfRangeError,
    InvalidFieldContextError,
    InvalidFlagTypeError,
    NonDecreasingSlopesError,
    NonPositiveCoverDegreeError,
    NonPositiveRankError,
    ParseError,
    QuotientRankOutOfRangeError,
    ValidationError,
)
from .hn import (
    CHAR_ZERO,
    FieldContext,
    HNPiece,
    HNType,
    as_fraction,
    hn_from_splitting_type,
    make_hn_type,
)
from .positivity import (
    PositivityClass,
    anticanonical_is_nef,
    classify_tautological,
    relative_anticanonical_class,
)
from .theta import (
    ThetaBreakdown,
    VaBundle,
    enumerate_va,
    theta,
    theta_oracle,
    threshold_index,
)

__version__ = "0.1.0"

__all__ = [
    "CHAR_ZERO",
    "CharZeroContextError",
    "ConeDescriptionFlag",
    "ConeDescriptionGr",
    "DimensionMismatchError",
    "EmptyTypeError",
    "FieldContext",
    "FlagType",
    "FlagnefError",
    "HNPiece",
    "HNType",
    "IndexOutOfRangeError",
    "InvalidFieldContextError",
    "InvalidFlagTypeError",
    "NSClassFlag",
    "NSClassGr",
    "NonDecreasingSlopesError",
    "NonPositiveCoverDegreeError",
    "NonPositiveRankError",
    "ParseError",
    "PositivityClass",
    "QuotientRankOutOfRangeError",
    "RayGr",
    "ThetaBreakdown",
    "VaBundle",
    "ValidationError",
    "anticanonical_is_nef",
    "as_fraction",
    "classify_tautological",
    "enumerate_va",
    "flag_nef_cone",
    "grassmann_nef_cone",
    "hn_from_splitting_type",
    "is_ample_gr",
    "is_nef_flag",
    "is_nef_gr",
    "make_hn_type",
    "primitive_ray",
    "pullback_to_flag",
    "relative_anticanonical_class",
    "theta",
    "theta_oracle",
    "threshold_index",
]
