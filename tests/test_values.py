"""Value semantics of the library's types and the messages of their checks.

The validated values (HNPiece, FieldContext, FlagType, RayGr, NSClassGr,
NSClassFlag) and the returned records (ThetaBreakdown, VaBundle,
ConeDescriptionGr, ConeDescriptionFlag) are named tuples, so besides
comparing equal to each other they compare equal to plain tuples of their
fields: ``RayGr(0, 1) == (0, 1)``.  HNType is a slotted class and equals
only another HNType.
"""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagnef import (
    ConeDescriptionFlag,
    ConeDescriptionGr,
    EmptyTypeError,
    FieldContext,
    FlagType,
    HNPiece,
    HNType,
    InvalidFieldContextError,
    InvalidFlagTypeError,
    LimitExceededError,
    NonDecreasingSlopesError,
    NonPositiveCoverDegreeError,
    NonPositiveRankError,
    NSClassFlag,
    NSClassGr,
    QuotientRankOutOfRangeError,
    RayGr,
    ThetaBreakdown,
    as_fraction,
    enumerate_va,
    flag_nef_cone,
    grassmann_nef_cone,
    make_hn_type,
    theta,
    theta_oracle,
)
from flagnef.hn import PRIME_BOUND, Polygon

TYPE = make_hn_type([(1, 1), (2, -1)])

# name -> (build, repr, fields); build() makes a fresh value on every call.
VALUES = {
    "HNPiece": (lambda: HNPiece(2, 1), "HNPiece(rank=2, degree=1)", ["rank", "degree"]),
    "HNType": (lambda: make_hn_type([(1, 1), (2, -1)]),
               "HNType(pieces=(HNPiece(rank=1, degree=1), HNPiece(rank=2, degree=-1)))",
               ["pieces", "polygon"]),
    "FieldContext": (lambda: FieldContext(3, 2), "FieldContext(p=3, delta=2)",
                     ["p", "delta", "p_delta"]),
    "FlagType": (lambda: FlagType([1, 2]), "FlagType(quotient_dims=(1, 2))", ["quotient_dims"]),
    "RayGr": (lambda: RayGr(2, -1), "RayGr(u=2, v=-1)", ["u", "v"]),
    "NSClassGr": (lambda: NSClassGr(1, "1/2"), "NSClassGr(x=Fraction(1, 1), y=Fraction(1, 2))",
                  ["x", "y"]),
    "NSClassFlag": (lambda: NSClassFlag([1, 0], -3),
                    "NSClassFlag(x=(Fraction(1, 1), Fraction(0, 1)), y=Fraction(-3, 1))",
                    ["x", "y"]),
    "ThetaBreakdown": (lambda: theta(TYPE, 2),
                       "ThetaBreakdown(r=2, t=2, tail_rank=0, tail_degree=0, s=2, "
                       "mu_t=Fraction(-1, 2), theta=Fraction(-1, 1))",
                       ["r", "t", "tail_rank", "tail_degree", "s", "mu_t", "theta"]),
    "VaBundle": (lambda: enumerate_va(make_hn_type([(1, 1), (2, -1)]), 1)[0],
                 "VaBundle(composition=(0, 1), rank=2, degree=-1, slope_sum=Fraction(-1, 2))",
                 ["composition", "rank", "degree", "slope_sum"]),
    "ConeDescriptionGr": (lambda: grassmann_nef_cone(TYPE, 1, FieldContext(2, 1)),
                          "ConeDescriptionGr(fiber_ray=RayGr(u=0, v=1), theta_ray=RayGr(u=4, v=1), "
                          "theta_used=Fraction(-1, 2), p_delta=2)",
                          ["fiber_ray", "theta_ray", "theta_used", "p_delta"]),
    "ConeDescriptionFlag": (lambda: flag_nef_cone(TYPE, FlagType([1, 2])),
                            "ConeDescriptionFlag(flag=FlagType(quotient_dims=(1, 2)), "
                            "rays=((2, 0, 1), (0, 1, 1), (0, 0, 1)), "
                            "thetas_used=(Fraction(-1, 2), Fraction(-1, 1)), p_delta=1)",
                            ["flag", "rays", "thetas_used", "p_delta"]),
}


@pytest.mark.parametrize("name", VALUES)
class TestValueSemantics:
    def test_equal_values_have_equal_hashes(self, name):
        a, b = VALUES[name][0](), VALUES[name][0]()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_repr(self, name):
        build, text, _ = VALUES[name]
        assert repr(build()) == text

    def test_assignment_raises(self, name):
        build, text, fields = VALUES[name]
        value = build()
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(value, field, 0)
            with pytest.raises(AttributeError):
                delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 0
        assert repr(value) == text


@pytest.mark.parametrize("name", VALUES)
@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                       lambda value: pickle.loads(pickle.dumps(value))])
def test_copies_and_pickles_are_equal_values(name, duplicate):
    build, text, _ = VALUES[name]
    value = duplicate(build())
    assert type(value) is type(build())
    assert value == build()
    assert repr(value) == text


class TestTupleEquality:
    def test_named_tuples_equal_plain_tuples(self):
        assert RayGr(0, 1) == (0, 1)
        assert HNPiece(1, 0) == (1, 0)
        assert FlagType([1, 2]) == ((1, 2),)
        assert NSClassGr(1, 2) == (Fraction(1), Fraction(2))

    def test_hn_type_equals_only_hn_types(self):
        h = make_hn_type([(1, 0)])
        assert h != (HNPiece(1, 0),)
        assert h != h.pieces
        assert h == HNType([HNPiece(1, 0)])
        assert len(h) == 1

    def test_the_oracle_slot_is_not_part_of_the_value(self):
        h = make_hn_type([(1, 1), (2, -1)])
        theta_oracle(h, 2)
        enumerate_va(h, 1)
        assert h._oracle is not None
        assert h == make_hn_type([(1, 1), (2, -1)])
        assert hash(h) == hash(make_hn_type([(1, 1), (2, -1)]))
        assert repr(h) == VALUES["HNType"][1]
        for duplicate in (copy.copy(h), copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
            assert duplicate == h and getattr(duplicate, "_oracle", None) is None
        with pytest.raises(AttributeError):
            h._oracle = None

    def test_replace_and_make_go_through_the_checks(self):
        assert RayGr(0, 1)._replace(v=-1) == RayGr(0, -1)
        assert NSClassFlag([1], 2)._replace(y="1/3").y == Fraction(1, 3)
        with pytest.raises(ValueError, match=r"^\(-3, 1\) is not a normalized primitive ray$"):
            RayGr(0, 1)._replace(u=-3)
        with pytest.raises(NonPositiveRankError):
            HNPiece._make((0, 1))
        with pytest.raises(InvalidFlagTypeError):
            FlagType([1, 2])._replace(quotient_dims=(2, 1))
        assert FieldContext(3, 2)._replace(delta=5) == FieldContext(3, 5)
        with pytest.raises(InvalidFieldContextError):
            FieldContext(3, 2)._replace(delta=-1)

    def test_field_context_stores_p_delta(self):
        ctx = FieldContext(3, 4)
        assert (ctx.p, ctx.delta, ctx.p_delta) == (3, 4, 81)
        assert FieldContext().p_delta == 1


# (build, error class, exact message): every check keeps its class and text.
CHECKS = [
    (lambda: HNPiece(0, 1), NonPositiveRankError, "piece rank must be positive, got 0"),
    (lambda: HNPiece(1.0, 1), TypeError, "rank and degree must be integers"),
    (lambda: HNType(()), EmptyTypeError, "an HN type needs at least one piece"),
    (lambda: HNType([(1, 0)]), TypeError, "pieces must be HNPiece instances"),
    (lambda: HNType([HNPiece(1, 0), HNPiece(2, 1)]), NonDecreasingSlopesError,
     "slopes must strictly decrease, but mu_1 = 0 <= mu_2 = 1/2"),
    (lambda: TYPE.cover_pullback(0), NonPositiveCoverDegreeError,
     "cover degree must be >= 1, got 0"),
    (lambda: FieldContext("2"), TypeError, "p and delta must be integers"),
    (lambda: FieldContext(0, 1), InvalidFieldContextError,
     "delta must be 0 in characteristic zero"),
    (lambda: FieldContext(4), InvalidFieldContextError,
     "characteristic must be 0 or a prime, got 4"),
    (lambda: FieldContext(PRIME_BOUND), InvalidFieldContextError,
     f"characteristic must be below {PRIME_BOUND}, got {PRIME_BOUND}"),
    (lambda: FieldContext(3, -1), InvalidFieldContextError, "delta must be >= 0, got -1"),
    (lambda: FieldContext(2, 14285), LimitExceededError,
     "p**delta must be below 10**4300, got 2**14285"),
    (lambda: FlagType(()), InvalidFlagTypeError,
     "a flag type needs at least one quotient dimension"),
    (lambda: FlagType([1, "2"]), TypeError, "quotient dimensions must be integers"),
    (lambda: FlagType([0, 1]), InvalidFlagTypeError, "quotient dimensions must be >= 1, got 0"),
    (lambda: FlagType([2, 2]), InvalidFlagTypeError,
     "quotient dimensions must strictly increase, got 2 then 2"),
    (lambda: RayGr(1.0, 0), TypeError, "ray coordinates must be integers"),
    (lambda: RayGr(0, 0), ValueError, "the zero vector spans no ray"),
    (lambda: RayGr(2, 4), ValueError, "(2, 4) is not a normalized primitive ray"),
    (lambda: RayGr(-1, 0), ValueError, "(-1, 0) is not a normalized primitive ray"),
    (lambda: NSClassGr(0.5, 1), TypeError, "floats are not allowed in exact computations"),
    (lambda: NSClassFlag([1, 0.5], 1), TypeError, "floats are not allowed in exact computations"),
    (lambda: theta(TYPE, 3), QuotientRankOutOfRangeError,
     "quotient dimension must satisfy 1 <= r <= 2, got 3"),
    (lambda: flag_nef_cone(TYPE, FlagType([3])), InvalidFlagTypeError,
     "largest quotient dimension 3 must be < rank 3"),
]


@pytest.mark.parametrize("build,error,message", CHECKS)
def test_checks_keep_their_class_and_message(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


BIG = 10**5000  # 5001 digits, more than str() converts by default


class TestUnprintableIntegers:
    """An error whose message shows an integer too long for str() still
    raises, with the integer given by its size."""

    def test_field_context_with_a_huge_delta(self):
        with pytest.raises(LimitExceededError) as info:
            FieldContext(2, BIG)
        assert str(info.value) == (
            "p**delta must be below 10**4300, got 2**<an integer of 5001 digits>")

    def test_theta_out_of_range_on_a_huge_rank(self):
        h = make_hn_type([(10**4300, 1), (10**4300, 0)])
        with pytest.raises(QuotientRankOutOfRangeError) as info:
            theta(h, 0)
        assert str(info.value) == (
            "quotient dimension must satisfy 1 <= r <= <an integer of 4301 digits>, got 0")

    @pytest.mark.parametrize("build,error,message", [
        (lambda: HNPiece(-BIG, 0), NonPositiveRankError,
         "piece rank must be positive, got <a negative integer of 5001 digits>"),
        (lambda: make_hn_type([(3, BIG), (1, BIG)]), NonDecreasingSlopesError,
         "slopes must strictly decrease, but mu_1 = <an integer of 5001 digits>/3 <= "
         "mu_2 = <an integer of 5001 digits>"),
        (lambda: FieldContext(-BIG), InvalidFieldContextError,
         "characteristic must be 0 or a prime, got <a negative integer of 5001 digits>"),
        (lambda: FieldContext(BIG), InvalidFieldContextError,
         f"characteristic must be below {PRIME_BOUND}, got <an integer of 5001 digits>"),
        (lambda: FlagType([BIG, 1]), InvalidFlagTypeError,
         "quotient dimensions must strictly increase, got <an integer of 5001 digits> then 1"),
        (lambda: RayGr(2 * BIG, 4), ValueError,
         "(<an integer of 5001 digits>, 4) is not a normalized primitive ray"),
        (lambda: TYPE.cover_pullback(-BIG), NonPositiveCoverDegreeError,
         "cover degree must be >= 1, got <a negative integer of 5001 digits>"),
        (lambda: theta(TYPE, 10**4300), QuotientRankOutOfRangeError,
         "quotient dimension must satisfy 1 <= r <= 2, got <an integer of 4301 digits>"),
    ])
    def test_each_message(self, build, error, message):
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.parametrize("digits", [4301, 4302, 5000, 5001, 9999])
    def test_the_size_is_exact(self, digits):
        for value in (10 ** (digits - 1), 10**digits - 1):
            with pytest.raises(NonPositiveRankError) as info:
                HNPiece(-value, 0)
            assert str(info.value).endswith(f"<a negative integer of {digits} digits>")


# name -> (the record as the library returns it, the same record built by keyword)
RECORDS = {
    "ThetaBreakdown": (lambda: theta(TYPE, 2),
                       ThetaBreakdown(r=2, t=2, tail_rank=0, tail_degree=0, s=2,
                                      mu_t=Fraction(-1, 2), theta=Fraction(-1))),
    "ConeDescriptionGr": (lambda: grassmann_nef_cone(TYPE, 1, FieldContext(2, 1)),
                          ConeDescriptionGr(fiber_ray=RayGr(0, 1), theta_ray=RayGr(4, 1),
                                            theta_used=Fraction(-1, 2), p_delta=2)),
    "ConeDescriptionFlag": (lambda: flag_nef_cone(TYPE, FlagType([1, 2])),
                            ConeDescriptionFlag(flag=FlagType([1, 2]),
                                                rays=((2, 0, 1), (0, 1, 1), (0, 0, 1)),
                                                thetas_used=(Fraction(-1, 2), Fraction(-1)),
                                                p_delta=1)),
    "Polygon": (lambda: make_hn_type([(1, 1), (2, -1)]).polygon,
                Polygon(ranks=(0, 2, 3), degrees=(0, -1, 0))),
}


@pytest.mark.parametrize("name", RECORDS)
class TestPackedRecords:
    """Records packed with tuple.__new__ are full named tuples of their class."""

    def test_class_fields_and_keyword_equality(self, name):
        build, expected = RECORDS[name]
        value = build()
        assert type(value) is type(expected) and type(value).__name__ == name
        assert value._fields == expected._fields
        assert value == expected and hash(value) == hash(expected)
        assert repr(value) == repr(expected)

    def test_replace_and_asdict(self, name):
        build, expected = RECORDS[name]
        value = build()
        assert value._asdict() == expected._asdict()
        assert list(value._asdict()) == list(value._fields)
        first = value._fields[0]
        changed = value._replace(**{first: "changed"})
        assert type(changed) is type(value)
        assert changed == ("changed",) + tuple(value[1:])
        assert type(value)(**value._asdict()) == value

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                           lambda value: pickle.loads(pickle.dumps(value))])
    def test_copy_and_pickle(self, name, duplicate):
        value = RECORDS[name][0]()
        twin = duplicate(value)
        assert type(twin) is type(value) and twin == value


def outcome(convert, text):
    """The value ``convert(text)`` returns, or the class and message it raises."""
    try:
        return convert(text)
    except Exception as exc:  # the exception is what is compared
        return type(exc), str(exc)


class TestAsFraction:
    """A string reads exactly as Fraction(str) reads it."""

    @pytest.mark.parametrize("text", [" 2 ", "+3", "\u0663", "\u00b2", "1_0", "1__0", "_1", "",
                                      "-", "0x1", "1e3", "-7/3", "0" * 7 + "42",
                                      "9" * 4300, "1" + "0" * 4300])
    def test_fixed_strings(self, text):
        expected = outcome(Fraction, text)
        value = outcome(as_fraction, text)
        assert value == expected and type(value) is type(expected)

    def test_a_string_past_the_digit_limit_raises_as_fraction_does(self):
        text = "1" + "0" * 4300
        assert outcome(as_fraction, text)[0] is ValueError
        assert outcome(as_fraction, text) == outcome(Fraction, text)

    @given(st.text(alphabet="0179\u0663\u00b2_ +-/.e", max_size=8))
    def test_strings_over_a_small_alphabet(self, text):
        expected = outcome(Fraction, text)
        value = outcome(as_fraction, text)
        assert value == expected and type(value) is type(expected)


class _Rational(Fraction):
    pass


def test_as_fraction_returns_an_exact_fraction_itself():
    """A Fraction is immutable, so it is not copied; a subclass still
    becomes a plain Fraction of the same value."""
    f = Fraction(-7, 3)
    assert as_fraction(f) is f
    sub = _Rational(5, 2)
    value = as_fraction(sub)
    assert type(value) is Fraction and value == sub and value is not sub
