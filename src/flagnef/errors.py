"""Exception hierarchy.

Every error raised by the library derives from :class:`FlagnefError` and
carries a short stable ``code`` that the CLI uses in diagnostics.
"""


class FlagnefError(Exception):
    """Base class for all flagnef errors."""

    code = "Error"


class EmptyTypeError(FlagnefError):
    code = "EmptyType"


class NonPositiveRankError(FlagnefError):
    code = "NonPositiveRank"


class NonDecreasingSlopesError(FlagnefError):
    code = "NonDecreasingSlopes"


class InvalidFieldContextError(FlagnefError):
    code = "InvalidFieldContext"


class CharZeroContextError(FlagnefError):
    """Frobenius pullback requested in characteristic zero."""

    code = "CharZeroContext"


class NonPositiveCoverDegreeError(FlagnefError):
    code = "NonPositiveCoverDegree"


class QuotientRankOutOfRangeError(FlagnefError):
    """The quotient dimension r must satisfy 1 <= r <= rank - 1."""

    code = "QuotientRankOutOfRange"


class InvalidFlagTypeError(FlagnefError):
    code = "InvalidFlagType"


class DimensionMismatchError(FlagnefError):
    code = "DimensionMismatch"


class IndexOutOfRangeError(FlagnefError):
    code = "IndexOutOfRange"


class LimitExceededError(FlagnefError):
    """A value too large for the documented size limits."""

    code = "LimitExceeded"


class ParseError(FlagnefError):
    """Malformed CLI input (bad JSON, bad structure, bad usage)."""

    code = "ParseError"


class ValidationError(FlagnefError):
    """Well-formed CLI input that violates a core invariant."""

    code = "ValidationError"
