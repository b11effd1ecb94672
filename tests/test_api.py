"""The package's public surface: ``flagnef.__all__``, which the package
computes from the names it imports, is the list pinned here and lists
exactly the public names the package binds, and names removed from the
surface stay removed."""

import types

import flagnef
import flagnef.cli


PUBLIC = [
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
    "LimitExceededError",
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


def test_all_is_the_pinned_public_surface():
    assert flagnef.__all__ == PUBLIC


def test_all_is_sorted_without_duplicates():
    assert flagnef.__all__ == sorted(set(flagnef.__all__))


def test_all_lists_exactly_the_public_non_module_attributes():
    for name in flagnef.__all__:
        assert not isinstance(getattr(flagnef, name), types.ModuleType), name
    public = {name for name, value in vars(flagnef).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(flagnef.__all__)


def test_removed_names_stay_removed():
    """A type is read through its pieces and its polygon; a bundle spec
    through run_command."""
    h = flagnef.make_hn_type([(1, 1), (2, -1)])
    for name in ("ranks", "degrees", "slopes"):
        assert not hasattr(flagnef.HNType, name)
        assert not hasattr(h, name)
    assert not hasattr(flagnef.cli, "parse_bundle_spec")
