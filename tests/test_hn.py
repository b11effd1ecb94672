import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagnef import (
    CHAR_ZERO,
    CharZeroContextError,
    EmptyTypeError,
    FieldContext,
    HNPiece,
    InvalidFieldContextError,
    LimitExceededError,
    NonDecreasingSlopesError,
    NonPositiveCoverDegreeError,
    NonPositiveRankError,
    HNType,
    hn_from_splitting_type,
    make_hn_type,
)
from flagnef.hn import PRIME_BOUND, _is_prime
from helpers import merge_by_slope


@st.composite
def hn_types(draw, max_pieces=4, piece_rank=3, degree_bound=9):
    raw = draw(
        st.lists(
            st.tuples(st.integers(1, piece_rank), st.integers(-degree_bound, degree_bound)),
            min_size=1,
            max_size=max_pieces,
        )
    )
    return make_hn_type(merge_by_slope(raw))


class TestMakeHNType:
    def test_single_semistable_piece(self):
        h = make_hn_type([(2, 0)])
        assert len(h) == 1
        assert h.rank == 2
        assert h.degree == 0

    def test_two_pieces_with_decreasing_slopes(self):
        h = make_hn_type([(1, 1), (2, -1)])
        assert h.slopes == (Fraction(1), Fraction(-1, 2))

    def test_equal_slopes_rejected(self):
        with pytest.raises(NonDecreasingSlopesError):
            make_hn_type([(1, 0), (1, 0)])

    def test_increasing_slopes_rejected(self):
        with pytest.raises(NonDecreasingSlopesError):
            make_hn_type([(2, -1), (1, 1)])

    def test_empty_rejected(self):
        with pytest.raises(EmptyTypeError):
            make_hn_type([])

    def test_nonpositive_rank_rejected(self):
        with pytest.raises(NonPositiveRankError):
            make_hn_type([(0, 1)])
        with pytest.raises(NonPositiveRankError):
            make_hn_type([(-2, 1)])

    def test_float_inputs_rejected(self):
        with pytest.raises(TypeError):
            make_hn_type([(1, 0.5)])


class TestSplittingType:
    def test_grouping(self):
        h = hn_from_splitting_type([3, 1, 1, 0])
        assert [(p.rank, p.degree) for p in h.pieces] == [(1, 3), (2, 2), (1, 0)]

    def test_single_summand(self):
        h = hn_from_splitting_type([2])
        assert [(p.rank, p.degree) for p in h.pieces] == [(1, 2)]

    def test_equal_summands_merge(self):
        h = hn_from_splitting_type([1, 1, 1])
        assert [(p.rank, p.degree) for p in h.pieces] == [(3, 3)]

    def test_input_order_is_irrelevant(self):
        assert hn_from_splitting_type([0, 1, 3, 1]) == hn_from_splitting_type([3, 1, 1, 0])

    def test_accepts_any_iterable(self):
        h = hn_from_splitting_type(a for a in (0, 3, 3))
        assert [(p.rank, p.degree) for p in h.pieces] == [(2, 6), (1, 0)]

    def test_empty_rejected(self):
        with pytest.raises(EmptyTypeError):
            hn_from_splitting_type([])

    def test_non_integer_degrees_rejected(self):
        with pytest.raises(TypeError):
            hn_from_splitting_type([1, 0.5])

    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=8))
    def test_rank_and_degree_match_the_summands(self, degrees):
        h = hn_from_splitting_type(degrees)
        assert h.rank == len(degrees)
        assert h.degree == sum(degrees)
        # output always passes strict validation
        make_hn_type([(p.rank, p.degree) for p in h.pieces])


class TestGlobalInvariants:
    @pytest.mark.parametrize(
        "pieces,expected",
        [
            ([(2, 0)], (2, 0, Fraction(0))),
            ([(1, 1), (2, -1)], (3, 0, Fraction(0))),
            ([(1, 3), (2, 2), (1, 0)], (4, 5, Fraction(5, 4))),
        ],
    )
    def test_examples(self, pieces, expected):
        h = make_hn_type(pieces)
        assert (h.rank, h.degree, h.slope) == expected


class TestPolygon:
    def test_example(self):
        h = make_hn_type([(1, 3), (2, 2), (1, 0)])
        assert h.polygon.ranks == (0, 1, 3, 4)
        assert h.polygon.degrees == (0, 0, 2, 5)

    @given(hn_types())
    def test_last_vertex_is_rank_and_degree(self, h):
        assert (h.polygon.ranks[-1], h.polygon.degrees[-1]) == (
            sum(p.rank for p in h.pieces),
            sum(p.degree for p in h.pieces),
        )
        assert (h.rank, h.degree) == (h.polygon.ranks[-1], h.polygon.degrees[-1])

    @given(hn_types())
    def test_built_once(self, h):
        assert h.polygon is h.polygon

    @given(hn_types())
    def test_edges_are_the_pieces_from_the_bottom_up(self, h):
        ranks, degrees = h.polygon
        edges = [(ranks[k + 1] - ranks[k], degrees[k + 1] - degrees[k]) for k in range(len(h))]
        assert edges == [(p.rank, p.degree) for p in reversed(h.pieces)]


class TestTransforms:
    def test_dual_examples(self):
        assert make_hn_type([(2, 0)]).dual() == make_hn_type([(2, 0)])
        assert make_hn_type([(1, 3), (2, 1), (1, 0)]).dual() == make_hn_type(
            [(1, 0), (2, -1), (1, -3)]
        )
        assert make_hn_type([(1, 1), (2, -1)]).dual() == make_hn_type([(2, 1), (1, -1)])

    def test_twist_examples(self):
        assert make_hn_type([(2, 0)]).twist(1) == make_hn_type([(2, 2)])
        assert make_hn_type([(1, 1), (2, -1)]).twist(-1) == make_hn_type([(1, 0), (2, -3)])
        h = make_hn_type([(1, 4), (3, 2)])
        assert h.twist(0) == h

    def test_frobenius_examples(self):
        ctx = FieldContext(p=2, delta=2)
        assert make_hn_type([(1, 1), (1, -1)]).frobenius_pullback(ctx) == make_hn_type(
            [(1, 4), (1, -4)]
        )
        assert make_hn_type([(2, 0)]).frobenius_pullback(FieldContext(3, 1)) == make_hn_type(
            [(2, 0)]
        )
        h = make_hn_type([(1, 2), (2, 1)])
        assert h.frobenius_pullback(FieldContext(5, 0)) == h

    def test_frobenius_needs_char_p(self):
        with pytest.raises(CharZeroContextError):
            make_hn_type([(2, 0)]).frobenius_pullback(CHAR_ZERO)

    def test_cover_examples(self):
        assert make_hn_type([(1, 1), (2, -1)]).cover_pullback(3) == make_hn_type(
            [(1, 3), (2, -3)]
        )
        h = make_hn_type([(2, 0)])
        assert h.cover_pullback(1) == h
        assert h.cover_pullback(5) == h

    def test_cover_degree_must_be_positive(self):
        h = make_hn_type([(2, 0)])
        for m in (0, -1):
            with pytest.raises(NonPositiveCoverDegreeError):
                h.cover_pullback(m)

    @given(hn_types())
    def test_dual_is_an_involution(self, h):
        assert h.dual().dual() == h

    @given(hn_types())
    def test_dual_global_invariants(self, h):
        d = h.dual()
        assert (d.rank, d.degree, d.slope) == (h.rank, -h.degree, -h.slope)

    @given(hn_types(), st.integers(-5, 5), st.integers(-5, 5))
    def test_twist_is_additive(self, h, a, b):
        assert h.twist(a).twist(b) == h.twist(a + b)

    @given(hn_types(), st.integers(-5, 5))
    def test_twist_shifts_degree_by_rank(self, h, m):
        assert h.twist(m).degree == h.degree + h.rank * m

    @given(hn_types(), st.integers(1, 4), st.integers(1, 4))
    def test_cover_pullback_composes(self, h, a, b):
        assert h.cover_pullback(a).cover_pullback(b) == h.cover_pullback(a * b)

    @given(hn_types(), st.integers(-5, 5), st.integers(1, 4), st.sampled_from([2, 3, 5]),
           st.integers(0, 3))
    def test_outputs_pass_full_validation(self, h, m, c, p, delta):
        outputs = [h.dual(), h.twist(m), h.cover_pullback(c),
                   h.frobenius_pullback(FieldContext(p, delta))]
        for out in outputs:
            assert out == HNType(out.pieces)
            slopes = out.slopes
            assert all(slopes[i] > slopes[i + 1] for i in range(len(slopes) - 1))

    @given(hn_types())
    def test_slopes_strictly_decrease(self, h):
        slopes = h.slopes
        assert all(slopes[i] > slopes[i + 1] for i in range(len(slopes) - 1))


class TestFieldContext:
    def test_char_zero_defaults(self):
        assert CHAR_ZERO.p == 0
        assert not CHAR_ZERO.is_char_p
        assert CHAR_ZERO.p_delta == 1

    def test_char_p_scaling_factor(self):
        assert FieldContext(2, 3).p_delta == 8
        assert FieldContext(7, 0).p_delta == 1

    def test_composite_characteristic_rejected(self):
        for bad in (1, 4, 6, 9, -2):
            with pytest.raises(InvalidFieldContextError):
                FieldContext(bad, 0)

    def test_negative_delta_rejected(self):
        with pytest.raises(InvalidFieldContextError):
            FieldContext(2, -1)

    def test_char_zero_with_steps_rejected(self):
        with pytest.raises(InvalidFieldContextError):
            FieldContext(0, 1)

    def test_primality_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))

        assert [n for n in range(-3, 5000) if _is_prime(n)] == [
            n for n in range(-3, 5000) if trial(n)
        ]

    def test_fifteen_digit_prime_is_accepted_fast(self):
        start = time.perf_counter()
        assert FieldContext(100000000000031, 1).p_delta == 100000000000031
        assert time.perf_counter() - start < 0.1  # trial division took about 0.6 s

    @pytest.mark.parametrize(
        "n",
        [
            561,  # Carmichael number
            1152271,  # Carmichael number 43 * 127 * 211, no factor among the bases
            3215031751,  # strong pseudoprime to bases 2, 3, 5 and 7
            3825123056546413051,  # strong pseudoprime to bases 2 through 23
        ],
    )
    def test_pseudoprimes_rejected(self, n):
        assert not _is_prime(n)
        with pytest.raises(InvalidFieldContextError, match="must be 0 or a prime"):
            FieldContext(n, 0)

    def test_characteristic_at_or_above_the_bound_rejected(self):
        for p in (PRIME_BOUND, 2**89 - 1):  # the second is prime
            with pytest.raises(InvalidFieldContextError, match="must be below"):
                FieldContext(p, 0)

    @pytest.mark.parametrize("p,largest", [(2, 14284), (3, 9012)])
    def test_p_delta_stays_below_the_digit_limit(self, p, largest):
        assert FieldContext(p, largest).p_delta < 10**4300 <= p ** (largest + 1)
        message = rf"below 10\*\*4300, got {p}\*\*{largest + 1}"
        with pytest.raises(LimitExceededError, match=message):
            FieldContext(p, largest + 1)

    def test_huge_delta_is_rejected_without_the_power(self):
        start = time.perf_counter()
        with pytest.raises(LimitExceededError):
            FieldContext(2, 10**100)
        assert time.perf_counter() - start < 0.1

    def test_constructors(self):
        assert FieldContext() == CHAR_ZERO
        assert FieldContext(p=3, delta=2) == FieldContext(3, 2)
        assert FieldContext(3) == FieldContext(3, 0)


class TestImmutability:
    def test_values_are_frozen(self):
        h = make_hn_type([(2, 0)])
        with pytest.raises(AttributeError):
            h.pieces = ()
        with pytest.raises(AttributeError):
            h.pieces[0].rank = 5
        with pytest.raises(AttributeError):
            CHAR_ZERO.p = 7

    def test_piece_slope_is_exact(self):
        assert HNPiece(3, 2).slope == Fraction(2, 3)
