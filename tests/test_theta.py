import importlib
import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagnef import (
    FieldContext,
    HNPiece,
    PositivityClass,
    QuotientRankOutOfRangeError,
    classify_tautological,
    enumerate_va,
    grassmann_nef_cone,
    make_hn_type,
    theta,
    theta_oracle,
    threshold_index,
)
from flagnef.theta import _bounded_compositions, _theta_value
from helpers import brute_min_slope_sum, merge_by_slope


@st.composite
def hn_types_with_r(draw, max_pieces=4, piece_rank=3, degree_bound=9):
    raw = draw(
        st.lists(
            st.tuples(st.integers(1, piece_rank), st.integers(-degree_bound, degree_bound)),
            min_size=1,
            max_size=max_pieces,
        )
    )
    h = make_hn_type(merge_by_slope(raw))
    if h.rank < 2:
        h = make_hn_type([(h.pieces[0].rank + 1, h.pieces[0].degree)])
    r = draw(st.integers(1, h.rank - 1))
    return h, r


@st.composite
def multi_rank_types_with_r(draw):
    """3 to 6 pieces of rank up to 4 with distinct slopes, so none merge."""
    pieces = draw(
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(-12, 12)),
            min_size=3,
            max_size=6,
            unique_by=lambda p: Fraction(p[1], p[0]),
        )
    )
    h = make_hn_type(merge_by_slope(pieces))
    return h, draw(st.integers(1, h.rank - 1))


class TestThresholdIndex:
    def test_single_piece(self):
        for n, d in [(2, 0), (5, 3), (7, -11)]:
            for r in range(1, n):
                assert threshold_index(make_hn_type([(n, d)]), r) == 1

    def test_documented_examples(self):
        assert threshold_index(make_hn_type([(1, 3), (2, 1), (1, 0)]), 2) == 2
        assert threshold_index(make_hn_type([(1, 1), (2, -1)]), 1) == 2

    def test_largest_qualifying_index(self):
        h = make_hn_type([(1, 3), (2, 1), (1, 0)])
        # tail ranks from t = 3, 2, 1 are 1, 3, 4
        assert threshold_index(h, 1) == 3
        assert threshold_index(h, 3) == 2
        assert threshold_index(h, 4 - 1) == 2

    def test_out_of_range(self):
        h = make_hn_type([(2, 0)])
        for r in (0, -1, 2, 5):
            with pytest.raises(QuotientRankOutOfRangeError):
                threshold_index(h, r)


class TestTheta:
    def test_semistable_closed_form(self):
        for n, d in [(2, 0), (3, 2), (5, -7)]:
            for r in range(1, n):
                assert theta(make_hn_type([(n, d)]), r).theta == Fraction(r * d, n)

    def test_breakdown_example_unstable(self):
        bd = theta(make_hn_type([(1, 1), (2, -1)]), 2)
        assert (bd.t, bd.s, bd.tail_rank, bd.tail_degree) == (2, 2, 0, 0)
        assert bd.mu_t == Fraction(-1, 2)
        assert bd.theta == Fraction(-1)

    def test_breakdown_example_three_pieces(self):
        bd = theta(make_hn_type([(1, 3), (2, 1), (1, 0)]), 3)
        assert (bd.t, bd.tail_rank, bd.s) == (2, 1, 2)
        assert bd.mu_t == Fraction(1, 2)
        assert bd.theta == Fraction(1)

    def test_breakdown_identity(self):
        bd = theta(make_hn_type([(2, 5), (1, 1), (3, -2)]), 4)
        assert bd.theta == bd.s * bd.mu_t + bd.tail_degree

    def test_out_of_range(self):
        h = make_hn_type([(1, 1), (2, -1)])
        for r in (0, 3, 4):
            with pytest.raises(QuotientRankOutOfRangeError):
                theta(h, r)

    @given(hn_types_with_r())
    def test_breakdown_matches_the_pieces(self, h_r):
        """The polygon's bisection agrees with the definitions, read off the
        pieces top-down with Fraction slopes."""
        h, r = h_r
        bd = theta(h, r)
        t = max(t for t in range(1, len(h) + 1) if sum(h.ranks[t - 1:]) >= r)
        assert bd.t == threshold_index(h, r) == t
        assert (bd.tail_rank, bd.tail_degree) == (sum(h.ranks[t:]), sum(h.degrees[t:]))
        assert bd.s == r - bd.tail_rank
        assert bd.mu_t == h.slopes[t - 1]
        assert bd.theta == bd.s * h.slopes[t - 1] + bd.tail_degree

    @given(hn_types_with_r())
    def test_partial_block_is_within_the_threshold_piece(self, h_r):
        h, r = h_r
        bd = theta(h, r)
        assert 1 <= bd.s <= h.pieces[bd.t - 1].rank


class TestIntegerRead:
    """The integer read of theta, which the cones and the trichotomy use,
    against the public breakdown at every quotient dimension."""

    @given(hn_types_with_r(), st.sampled_from([(0, 0), (2, 3), (5, 1)]))
    def test_agrees_with_the_breakdown(self, h_r, field):
        h, _ = h_r
        ctx = FieldContext(*field)
        for r in range(1, h.rank):
            value = theta(h, r).theta
            num, den = _theta_value(h, r)
            assert den > 0
            assert Fraction(num, den) == value
            assert classify_tautological(h, r) is PositivityClass.of(value)
            assert grassmann_nef_cone(h, r, ctx).theta_used == value


class TestEnumerateVa:
    def test_single_piece(self):
        blocks = enumerate_va(make_hn_type([(2, 0)]), 1)
        assert len(blocks) == 1
        assert blocks[0].composition == (1,)
        assert blocks[0].rank == 2
        assert blocks[0].degree == 0

    def test_two_piece_example(self):
        blocks = enumerate_va(make_hn_type([(1, 1), (2, -1)]), 2)
        assert [(b.composition, b.rank, b.degree) for b in blocks] == [
            ((0, 2), 1, -1),
            ((1, 1), 2, 1),
        ]
        assert blocks[0].slope_sum == Fraction(-1)
        assert blocks[1].slope_sum == Fraction(1, 2)

    def test_lexicographic_order(self):
        blocks = enumerate_va(make_hn_type([(2, 3), (2, 1), (2, -2)]), 3)
        comps = [b.composition for b in blocks]
        assert comps == sorted(comps)

    def test_bookkeeping_sums(self):
        h = make_hn_type([(1, 3), (2, 1), (1, 0)])
        blocks = enumerate_va(h, 2)
        assert sum(b.rank for b in blocks) == math.comb(4, 2)
        assert sum(b.degree for b in blocks) == math.comb(3, 1) * h.degree

    @given(hn_types_with_r())
    def test_degree_equals_rank_times_slope_sum(self, h_r):
        h, r = h_r
        for b in enumerate_va(h, r):
            assert b.degree == b.rank * b.slope_sum
            assert b.rank >= 1
            assert sum(b.composition) == r
            assert all(0 <= ai <= cap for ai, cap in zip(b.composition, h.ranks))

    @given(hn_types_with_r())
    def test_rank_and_degree_sums(self, h_r):
        h, r = h_r
        blocks = enumerate_va(h, r)
        n = h.rank
        assert sum(b.rank for b in blocks) == math.comb(n, r)
        assert sum(b.degree for b in blocks) == math.comb(n - 1, r - 1) * h.degree

    def test_out_of_range(self):
        with pytest.raises(QuotientRankOutOfRangeError):
            enumerate_va(make_hn_type([(2, 0)]), 2)

    @given(multi_rank_types_with_r())
    def test_blocks_against_the_product(self, h_r):
        """Every block, in order, against a filtered itertools.product with
        binomial ranks and Fraction slope sums."""
        h, r = h_r
        expected = []
        for a in itertools.product(*(range(c + 1) for c in h.ranks)):
            if sum(a) == r:
                rank = math.prod(math.comb(c, k) for c, k in zip(h.ranks, a))
                slope_sum = sum(k * mu for k, mu in zip(a, h.slopes))
                expected.append((a, rank, rank * slope_sum, slope_sum))
        blocks = enumerate_va(h, r)
        assert [tuple(b) for b in blocks] == expected
        assert all(type(b.degree) is int and type(b.slope_sum) is Fraction for b in blocks)


class TestBoundedCompositions:
    @given(st.lists(st.integers(0, 3), max_size=5), st.integers(-2, 17))
    def test_matches_the_filtered_product_in_order(self, caps, total):
        """Every bounded composition once, lexicographically increasing;
        a total below 0 or above sum(caps) gives none."""
        caps = tuple(caps)
        expected = [a for a in itertools.product(*(range(c + 1) for c in caps)) if sum(a) == total]
        assert list(_bounded_compositions(caps, total)) == expected

    def test_a_step_reads_only_the_entries_it_changes(self):
        """On many rank-1 caps at total 1 each step moves one unit, so the
        caps are read a bounded number of times per step, not once per
        entry after the raised one."""

        class CountingCaps(tuple):
            reads = 0

            def __getitem__(self, i):
                CountingCaps.reads += 1
                return tuple.__getitem__(self, i)

        n = 1000
        assert sum(1 for _ in _bounded_compositions(CountingCaps((1,) * n), 1)) == n
        assert CountingCaps.reads <= 3 * n


class TestOracle:
    def test_single_piece(self):
        assert theta_oracle(make_hn_type([(4, 3)]), 2) == Fraction(3, 2)

    def test_unstable_example(self):
        assert theta_oracle(make_hn_type([(1, 1), (2, -1)]), 2) == Fraction(-1)

    def test_three_piece_example(self):
        h = make_hn_type([(1, 3), (2, 1), (1, 0)])
        assert theta_oracle(h, 2) == Fraction(1, 2)
        # every composition value, via the enumeration
        values = {b.composition: b.slope_sum for b in enumerate_va(h, 2)}
        assert values == {
            (1, 1, 0): Fraction(7, 2),
            (1, 0, 1): Fraction(3),
            (0, 2, 0): Fraction(1),
            (0, 1, 1): Fraction(1, 2),
        }

    def test_out_of_range(self):
        with pytest.raises(QuotientRankOutOfRangeError):
            theta_oracle(make_hn_type([(3, 1)]), 3)

    @given(hn_types_with_r())
    def test_three_way_agreement(self, h_r):
        """Closed form, dynamic-programming oracle and an independent
        product-based brute force all agree."""
        h, r = h_r
        expected = brute_min_slope_sum(h, r)
        assert theta_oracle(h, r) == expected
        assert theta(h, r).theta == expected

    @given(multi_rank_types_with_r())
    def test_multi_rank_pieces_against_the_product(self, h_r):
        h, r = h_r
        assert theta_oracle(h, r) == brute_min_slope_sum(h, r)

    def test_five_rank_4_pieces_at_every_r(self):
        h = make_hn_type([(4, 8), (4, 4), (4, 0), (4, -4), (4, -8)])
        expected = [-2, -4, -6, -8, -9, -10, -11, -12, -12, -12, -12, -12, -11, -10, -9, -8, -6, -4, -2]
        assert [brute_min_slope_sum(h, r) for r in range(1, 20)] == expected
        assert [theta_oracle(h, r) for r in range(1, 20)] == expected

    def test_1200_rank_1_pieces(self):
        h = make_hn_type([(1, 1200 - i) for i in range(1200)])
        assert theta_oracle(h, 1) == Fraction(1)

    def test_reads_only_the_ranks_and_slopes(self, monkeypatch):
        """No polygon, no closed form, and pieces in any slope order."""
        module = importlib.import_module("flagnef.theta")  # the package binds theta() here
        for name in ("theta", "_theta_parts", "_theta_value"):
            monkeypatch.setattr(module, name, None)
        pieces = (HNPiece(1, -3), HNPiece(4, 8), HNPiece(2, 1), HNPiece(3, 9))
        h = SimpleNamespace(pieces=pieces, ranks=tuple(p.rank for p in pieces))
        for r in range(1, 10):
            assert theta_oracle(h, r) == brute_min_slope_sum(h, r)

    @given(hn_types_with_r())
    def test_oracle_equals_min_block_slope(self, h_r):
        h, r = h_r
        blocks = enumerate_va(h, r)
        assert min(b.slope_sum for b in blocks) == theta_oracle(h, r)
        for b in blocks:
            assert (b.degree > 0) == (b.slope_sum > 0)
            assert (b.degree == 0) == (b.slope_sum == 0)


class TestTransformIdentities:
    @given(hn_types_with_r(), st.integers(-4, 4))
    def test_twist_covariance(self, h_r, m):
        h, r = h_r
        assert theta(h.twist(m), r).theta == theta(h, r).theta + r * m

    @given(hn_types_with_r(), st.integers(1, 4))
    def test_cover_scaling(self, h_r, m):
        h, r = h_r
        assert theta(h.cover_pullback(m), r).theta == m * theta(h, r).theta

    @given(hn_types_with_r(), st.sampled_from([2, 3, 5]), st.integers(0, 2))
    def test_frobenius_scaling(self, h_r, p, delta):
        h, r = h_r
        ctx = FieldContext(p, delta)
        pulled = h.frobenius_pullback(ctx)
        assert theta(pulled, r).theta == p**delta * theta(h, r).theta

    @given(hn_types_with_r())
    def test_duality(self, h_r):
        h, r = h_r
        assert theta(h.dual(), h.rank - r).theta == theta(h, r).theta - h.degree

    @given(hn_types_with_r())
    def test_semistable_bound(self, h_r):
        h, r = h_r
        value = theta(h, r).theta
        assert value <= r * h.slope
        assert (value == r * h.slope) == (len(h) == 1)


def test_oracle_scales_past_the_compositions():
    """A rank-24 type with thousands of compositions finishes promptly: the
    dynamic program takes O(rank * r) steps, not one per composition."""
    h = make_hn_type([(3, 20 - 5 * i) for i in range(8)])
    assert h.rank == 24
    assert theta(h, 12).theta == theta_oracle(h, 12)
