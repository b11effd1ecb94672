"""Exact positivity invariants and nef cones of Grassmann and flag bundles
over a smooth projective curve, from numerical Harder-Narasimhan data.

All computations are exact: arbitrary-precision integers and rationals, no
floating point.  Bundles are represented purely by the (rank, degree) data of
their Harder-Narasimhan graded pieces; in positive characteristic the input
is the Frobenius-stabilized type together with the pair (p, delta).
"""

from types import ModuleType as _ModuleType

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
    LimitExceededError,
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

# every public name imported above, and none of the submodules
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
