import copy
import importlib
import io
import itertools
import math
import pickle
import random
import sys
import threading
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagnef import (
    FieldContext,
    FlagType,
    HNPiece,
    LimitExceededError,
    PositivityClass,
    QuotientRankOutOfRangeError,
    VaBundle,
    anticanonical_is_nef,
    classify_tautological,
    enumerate_va,
    flag_nef_cone,
    grassmann_nef_cone,
    hn_from_splitting_type,
    make_hn_type,
    theta,
    theta_oracle,
    threshold_index,
)
from flagnef.cli import run_command
from flagnef.corpus import iter_hn_types
from flagnef.theta import (
    _WHOLE_TABLE_BLOCKS,
    _bounded_compositions,
    _oracle_data,
    _oracle_steps,
    _oracle_top,
    _theta_value,
)
from helpers import (
    brute_blocks,
    brute_min_slope_sum,
    hn_types_with_r,
    merge_by_slope,
    random_hn_type,
)


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

    def test_every_r_outside_the_fast_path_takes_the_full_check(self):
        """Only an exact int inside 1..n-1 skips the range check; everything
        else raises, or is accepted, exactly as the full check decides."""
        class Rank(int):
            pass

        h = make_hn_type([(1, 1), (2, -1)])
        assert theta(h, True) == theta(h, 1) and theta(h, Rank(2)) == theta(h, 2)
        one_piece = make_hn_type([(3, 1)])
        assert anticanonical_is_nef(h, True) is anticanonical_is_nef(h, Rank(2)) is False
        assert anticanonical_is_nef(one_piece, True) is anticanonical_is_nef(one_piece, Rank(2)) is True
        for r, error, message in [
            (0, QuotientRankOutOfRangeError, "quotient dimension must satisfy 1 <= r <= 2, got 0"),
            (-1, QuotientRankOutOfRangeError, "quotient dimension must satisfy 1 <= r <= 2, got -1"),
            (False, QuotientRankOutOfRangeError,
             "quotient dimension must satisfy 1 <= r <= 2, got False"),
            (Rank(3), QuotientRankOutOfRangeError,
             "quotient dimension must satisfy 1 <= r <= 2, got 3"),
            (1.0, TypeError, "quotient dimension r must be an integer"),
            (Fraction(1), TypeError, "quotient dimension r must be an integer"),
            ("1", TypeError, "quotient dimension r must be an integer"),
        ]:
            for read in (theta, threshold_index, classify_tautological, grassmann_nef_cone,
                         anticanonical_is_nef):
                with pytest.raises(error) as info:
                    read(h, r)
                assert type(info.value) is error and str(info.value) == message

    @given(hn_types_with_r())
    def test_breakdown_matches_the_pieces(self, h_r):
        """The polygon's bisection agrees with the definitions, read off the
        pieces top-down with Fraction slopes."""
        h, r = h_r
        bd = theta(h, r)
        ranks = [p.rank for p in h.pieces]
        t = max(t for t in range(1, len(h) + 1) if sum(ranks[t - 1:]) >= r)
        assert bd.t == threshold_index(h, r) == t
        tail = h.pieces[t:]
        assert (bd.tail_rank, bd.tail_degree) == (sum(p.rank for p in tail),
                                                  sum(p.degree for p in tail))
        assert bd.s == r - bd.tail_rank
        assert bd.mu_t == h.pieces[t - 1].slope
        assert bd.theta == bd.s * h.pieces[t - 1].slope + bd.tail_degree

    @given(hn_types_with_r())
    def test_partial_block_is_within_the_threshold_piece(self, h_r):
        h, r = h_r
        bd = theta(h, r)
        assert 1 <= bd.s <= h.pieces[bd.t - 1].rank

    def test_reads_neither_the_oracle_row_nor_its_slope_table(self, monkeypatch):
        """theta builds its own Fractions, so a wrong oracle entry cannot
        make the closed form agree with the oracle."""
        module = importlib.import_module("flagnef.theta")

        def refuse(*args):
            raise AssertionError("theta read the oracle's data")

        for name in ("_oracle_data", "_oracle_row"):
            monkeypatch.setattr(module, name, refuse)
        h = make_hn_type([(1, 3), (2, 1), (1, 0)])
        assert [theta(h, r).theta for r in range(1, 4)] == [0, Fraction(1, 2), 1]
        with pytest.raises(AssertionError, match="oracle's data"):
            theta_oracle(h, 1)


class TestIntegerRead:
    """The integer read of theta, which the cones and the trichotomy use,
    against the public breakdown at every quotient dimension."""

    @given(hn_types_with_r(), st.sampled_from([(0, 0), (2, 3), (5, 1)]))
    def test_agrees_with_the_breakdown(self, h_r, field):
        h, _ = h_r
        ctx = FieldContext(*field)
        for r in range(1, h.rank):
            value = theta(h, r).theta
            _, num, den, _ = _theta_value(h, r)
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
            assert all(0 <= ai <= p.rank for ai, p in zip(b.composition, h.pieces))

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
        blocks = enumerate_va(h, r)
        assert [tuple(b) for b in blocks] == brute_blocks(h, r)
        assert all(type(b.degree) is int and type(b.slope_sum) is Fraction for b in blocks)


class TestBlockTable:
    """A type read a second time, by enumerate_va or theta_oracle, keeps the
    blocks of every r, built in one walk, and answers from them; a single r
    or a large type does not."""

    def test_every_order_matches_the_first_call_walk(self, table_builds, row_builds):
        """Every r of the corpus and of 500 random types of rank <= 12,
        ascending, descending and shuffled, and ascending with theta_oracle
        asked before each r, as ``verify`` asks: each answer is the
        first-call walk on a fresh copy of the type, block for block and in
        order.  After an oracle read the first call builds the table, which
        shares the oracle's row and slopes."""
        rng = random.Random(15)
        pieces = [[tuple(p) for p in h.pieces] for h in iter_hn_types(6, 4)]
        pieces += [[tuple(p) for p in random_hn_type(rng).pieces] for _ in range(500)]
        tables = rows = 0
        for ps in pieces:
            up = list(range(1, sum(rank for rank, _ in ps)))
            want = {r: enumerate_va(make_hn_type(ps), r) for r in up}
            orders = [(up, False), (up[::-1], False), (rng.sample(up, len(up)), False), (up, True)]
            for rs, oracle_first in orders:
                h = make_hn_type(ps)
                for r in rs:
                    least = theta_oracle(h, r) if oracle_first else None
                    got = enumerate_va(h, r)
                    assert got == want[r] and all(type(b) is VaBundle for b in got)
                    assert not oracle_first or min(b.slope_sum for b in got) is least
            tables += 3 * (len(up) > 1) + (len(up) > 0)
            rows += len(up) > 0  # each of these rows is built whole
        assert len(table_builds) == tables > 24000 and len(row_builds) == rows

    def test_an_oracle_read_then_one_r_builds_one_table(self, table_builds):
        h = make_hn_type([(1, 3), (2, 1), (1, 0)])
        theta_oracle(h, 1)
        assert [tuple(b) for b in enumerate_va(h, 1)] == brute_blocks(h, 1)
        assert table_builds == [(1, 2, 1)]
        for r in (1, 2, 3):
            assert [tuple(b) for b in enumerate_va(h, r)] == brute_blocks(h, r)
        assert len(table_builds) == 1

    def test_after_an_oracle_read_the_bound_still_holds(self, table_builds):
        """The 2**12 blocks of 12 rank-1 pieces sit at the bound and build
        the table on the first call after an oracle read; 2**13 build none."""
        assert _WHOLE_TABLE_BLOCKS == 2**12
        for n in (12, 13):
            h = make_hn_type([(1, n - i) for i in range(n)])
            theta_oracle(h, 1)
            for r in (1, 2):
                assert [tuple(b) for b in enumerate_va(h, r)] == brute_blocks(h, r)
                assert table_builds == [(1,) * 12]

    def test_a_refused_call_is_no_read(self, table_builds):
        """A call whose r is refused leaves the type unread, so the next
        one-off call walks its r alone."""
        for refused in (enumerate_va, theta_oracle):
            h = make_hn_type([(1, 3), (2, 1), (1, 0)])
            for r, error in ((0, QuotientRankOutOfRangeError), (4, QuotientRankOutOfRangeError),
                             ("2", TypeError)):
                with pytest.raises(error):
                    refused(h, r)
            assert getattr(h, "_oracle", None) is None
            assert [tuple(b) for b in enumerate_va(h, 2)] == brute_blocks(h, 2)
        assert table_builds == []

    def test_the_caller_owns_the_list(self, table_builds):
        h = make_hn_type([(1, 3), (2, 1), (1, 0)])
        want = brute_blocks(h, 2)
        enumerate_va(h, 1)
        enumerate_va(h, 2).clear()
        assert [tuple(b) for b in enumerate_va(h, 2)] == want
        enumerate_va(h, 2).append(want[0])
        assert [tuple(b) for b in enumerate_va(h, 2)] == want
        assert len(table_builds) == 1

    def test_a_row_growth_keeps_the_table(self, table_builds, row_builds):
        """A rank-18 piece's whole row takes 289 steps, so its row grows by
        doubling, and each growth carries the block table along."""
        h = make_hn_type([(18, 1)])
        for r in range(1, 18):
            assert theta_oracle(h, r) == theta(h, r).theta
            assert [tuple(b) for b in enumerate_va(h, r)] == brute_blocks(h, r)
        assert row_builds == [1, 2, 4, 8, 16, 17] and len(table_builds) == 1

    def test_every_type_of_rank_3_or_more_builds_one_table(self, table_builds):
        """Over the corpus at every r, ascending: one table per type with
        more than one r, on its second call, and none for rank 2."""
        for h in iter_hn_types(6, 4):
            before = len(table_builds)
            for r in range(1, h.rank):
                enumerate_va(h, r)
                assert len(table_builds) - before == (r > 1)

    def test_a_single_r_request_builds_none(self, table_builds):
        argv = ["vabundles", "--bundle", '{"pieces":[[1,3],[2,1],[1,0]]}', "--r", "2", "--json"]
        report, code = run_command(argv, stdout=io.StringIO())
        assert code == 0 and report["result"]["count"] == 4
        assert table_builds == []

    def test_types_over_the_bound_build_none(self, table_builds):
        """2**1200 and 2 * (10**8 + 1) blocks in all: every call walks its own r."""
        start = time.perf_counter()
        wide = make_hn_type([(1, 1200 - i) for i in range(1200)])
        assert len(enumerate_va(wide, 1)) == len(enumerate_va(wide, 1)) == 1200
        huge = make_hn_type([[10**8, 0], [1, -1]])
        assert [b.composition for b in enumerate_va(huge, 1)] == [(0, 1), (1, 0)]
        assert [tuple(b) for b in enumerate_va(huge, 2)] == [
            ((1, 1), 10**8, -(10**8), Fraction(-1)),
            ((2, 0), math.comb(10**8, 2), 0, Fraction(0)),
        ]
        assert time.perf_counter() - start < 1
        assert table_builds == []


class TestSharedSlopes:
    """A rational num/den is shared process-wide exactly when den < 16 and
    |num| < 128: the closed form keeps such values in its own store, and a
    type whose slope numerators are bounded so, by sum(r_i * |w_i|) < 128,
    borrows the oracle's slope dict of its den."""

    THETA = importlib.import_module("flagnef.theta")

    @staticmethod
    def small_keys_only(*stores):
        """Each store is laid out {den: {num: Fraction(num, den)}} with den
        < 16 and |num| < 128."""
        for store in stores:
            for den, kept in store.items():
                assert 0 < den < 16, den
                for num, value in kept.items():
                    assert -128 < num < 128 and value == Fraction(num, den), (den, num, value)

    @staticmethod
    def read_all(h):
        """Every r of h, by the oracle and the block walk, checked against
        the brute force; the blocks of r = 1 are returned."""
        for r in range(1, h.rank):
            assert theta_oracle(h, r) == brute_min_slope_sum(h, r)
            assert [tuple(b) for b in enumerate_va(h, r)] == brute_blocks(h, r)
        return enumerate_va(h, 1)

    def test_two_types_of_one_den_return_the_same_object(self, shared_slopes):
        h, g = make_hn_type([(2, 1), (2, -1)]), make_hn_type([(2, 1), (2, -3)])
        ours, theirs = self.read_all(h)[-1], self.read_all(g)[-1]
        assert ours.composition == theirs.composition == (1, 0)
        assert ours.slope_sum is theirs.slope_sum and ours.slope_sum == Fraction(1, 2)
        assert h._oracle[4] is g._oracle[4] is shared_slopes[2]
        assert theta_oracle(h, 2) is shared_slopes[2][-2] is enumerate_va(h, 2)[0].slope_sum

    @pytest.mark.parametrize("first", [0, 1])
    def test_types_of_other_dens_never_share_a_key(self, shared_slopes, first):
        """1/2 and 1/4 both have num = 1, each over its own den."""
        types = [make_hn_type([(2, 1), (1, -1)]), make_hn_type([(4, 1), (1, -1)])]
        if first:
            types.reverse()
        for h in types:
            self.read_all(h)
        assert sorted(shared_slopes) == [2, 4]
        assert shared_slopes[2][1] == Fraction(1, 2) and shared_slopes[4][1] == Fraction(1, 4)

    def test_poisoned_shared_tables_leave_theta_and_the_cones_alone(self, corpus, monkeypatch):
        """The closed form and both cones read no shared slope: every den of
        the corpus (ranks <= 6, so dens 1..6) borrows a poisoned dict."""
        module = importlib.import_module("flagnef.theta")
        monkeypatch.setattr(module, "_SHARED_SLOPES", {den: _Poisoned() for den in range(1, 7)})
        for h in [h for h in corpus if h.rank > 1][::10]:
            g = make_hn_type(h.pieces)
            flag = FlagType(tuple(range(1, g.rank)))
            for r in range(1, g.rank):
                assert theta_oracle(g, r) is POISON  # the shared table is read
                expected = brute_min_slope_sum(h, r)
                bd = theta(g, r)
                assert (bd.theta, bd.mu_t) == (expected, h.pieces[bd.t - 1].slope)
                assert grassmann_nef_cone(g, r).theta_used == expected
                assert flag_nef_cone(g, flag).thetas_used[r - 1] == expected

    def test_the_corpus_keeps_only_small_keys(self, corpus, shared_slopes, shared_thetas):
        """Fresh copies of every corpus type, read at every r, fill both
        stores with small keys only, and the closed form, read from its
        store, agrees with the oracle, read from the other."""
        for h in corpus:
            g = make_hn_type(h.pieces)
            for r in range(1, g.rank):
                bd = theta(g, r)
                assert bd.theta == theta_oracle(g, r) and bd.mu_t == h.pieces[bd.t - 1].slope
                assert min(b.slope_sum for b in enumerate_va(g, r)) == bd.theta
        assert sorted(shared_thetas) == sorted(shared_slopes) == [1, 2, 3, 4, 5, 6]
        self.small_keys_only(shared_thetas, shared_slopes)

    @given(hn_types_with_r(max_pieces=4, piece_rank=6, degree_bound=70))
    def test_random_types_keep_only_small_keys(self, h_r):
        """Types whose values run past the bound, read at every r, leave
        the module's stores as they must be at any time."""
        h = make_hn_type(h_r[0].pieces)
        for r in range(1, h.rank):
            assert theta(h, r).theta == theta_oracle(h, r) == brute_min_slope_sum(h, r)
        self.small_keys_only(self.THETA._SHARED_THETAS, self.THETA._SHARED_SLOPES)

    @pytest.mark.parametrize("pieces, shared", [
        ([(15, 1)], True), ([(2, 127)], True), ([(2, -127)], True),
        ([(16, 1)], False), ([(2, 128)], False), ([(2, -128)], False)],
        ids=["den-15", "num-127", "num--127", "den-16", "num-128", "num--128"])
    def test_a_small_theta_is_one_object_for_every_type(self, shared_thetas, pieces, shared):
        """theta(1) and mu_1 of one piece (n, d) are d / n: one object for
        two types when n < 16 and |d| < 128, and a fresh one per type
        otherwise."""
        h, g = make_hn_type(pieces), make_hn_type(pieces)
        ours, theirs = theta(h, 1), theta(g, 1)
        assert ours.theta == theirs.theta == ours.mu_t == Fraction(pieces[0][1], pieces[0][0])
        assert (ours.theta is theirs.theta) == (ours.mu_t is theirs.mu_t) == shared
        assert (shared_thetas != {}) == shared
        self.small_keys_only(shared_thetas)

    def test_two_types_with_one_small_theta_share_it_apart_from_the_oracle(self):
        """theta(1) = -1/2 of both types is one object, from the closed
        form's process-wide store as it is (no fixture replaces it, so two
        stores bound to one object show); the oracle's -1/2, over the same
        den, is another object, from its own store."""
        h, g = make_hn_type([(2, 1), (2, -1)]), make_hn_type([(3, 5), (2, -1)])
        assert theta(h, 1).theta is theta(g, 1).theta and theta(h, 1).mu_t is theta(g, 1).mu_t
        assert theta_oracle(h, 1) == theta(h, 1).theta == Fraction(-1, 2)
        assert theta_oracle(h, 1) is not theta(h, 1).theta
        assert self.THETA._SHARED_THETAS is not self.THETA._SHARED_SLOPES

    @pytest.mark.parametrize("pieces, den, shared", [
        ([(1, 64), (1, -63)], 1, True), ([(1, 64), (1, -64)], 1, False),
        ([(2, 1), (1, -62)], 2, True), ([(2, 1), (1, -63)], 2, False),
        ([(15, 1)], 15, True), ([(16, 1)], 16, False)],
        ids=["sum-127", "sum-128", "sum-126-den-2", "sum-128-den-2", "den-15", "den-16"])
    def test_the_oracle_shares_below_the_bound_of_its_numerators(self, shared_slopes, pieces,
                                                                 den, shared):
        """sum(r_i * |w_i|) is 127 or 126 for the shared pairs, 128 for the
        others, whose weights stay below 128 (the den-2 pair's are 1 and
        -126), and 15 or 16 for one piece over den 15 or 16."""
        h = make_hn_type(pieces)
        self.read_all(h)
        assert h._oracle[2] == den and (h._oracle[4] is shared_slopes.get(den)) == shared
        assert (den in shared_slopes) == shared
        self.small_keys_only(shared_slopes)

    def test_a_poisoned_closed_form_store_leaves_the_oracle_alone(self, corpus, monkeypatch):
        """Every den of the corpus (ranks <= 6, so dens 1..6) has a poisoned
        closed-form dict: theta reads it for each small value, and the
        oracle and the block walk still give the brute-force answers."""
        monkeypatch.setattr(self.THETA, "_SHARED_THETAS", {den: _Poisoned() for den in range(1, 7)})
        for h in [h for h in corpus if h.rank > 1][::10]:
            g = make_hn_type(h.pieces)
            for r in range(1, g.rank):
                _, num, _, value = _theta_value(g, r)
                assert (value is POISON) == (-128 < num < 128)
                assert theta_oracle(g, r) == brute_min_slope_sum(h, r)
                assert [tuple(b) for b in enumerate_va(g, r)] == brute_blocks(h, r)

    def test_threads_sharing_fresh_stores(self, shared_slopes, shared_thetas):
        """Four threads read the same fresh types at every r while both
        stores fill: every answer matches the brute force, and the stores
        keep only small keys."""
        corpus = [h for h in iter_hn_types(5, 3) if h.rank > 1]
        want = [[(brute_min_slope_sum(h, r), brute_blocks(h, r)) for r in range(1, h.rank)]
                for h in corpus]
        types = [make_hn_type(h.pieces) for h in corpus]
        start, errors = threading.Barrier(4, timeout=30), []

        def work(descending):
            try:
                start.wait()
                for h, rows in zip(types, want):
                    rs = range(h.rank - 1, 0, -1) if descending else range(1, h.rank)
                    for r in rs:
                        value = rows[r - 1][0]
                        got = (theta(h, r).theta, theta_oracle(h, r),
                               [tuple(b) for b in enumerate_va(h, r)])
                        if got != (value, value, rows[r - 1][1]):
                            errors.append((h, r, got))
            except Exception as exc:  # reported below, in the test's thread
                errors.append(exc)
                start.abort()

        threads = [threading.Thread(target=work, args=(i % 2,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and shared_thetas and shared_slopes
        self.small_keys_only(shared_thetas, shared_slopes)


class TestBoundedCompositions:
    @given(st.lists(st.integers(0, 3), max_size=5), st.integers(-2, 17),
           st.lists(st.integers(-9, 9), min_size=5, max_size=5))
    def test_matches_the_filtered_product_in_order(self, caps, total, weights):
        """Every bounded composition once, lexicographically increasing, with
        its binomial product and weighted sum; a total below 0 or above
        sum(caps) gives none."""
        caps, weights = tuple(caps), tuple(weights[:len(caps)])
        expected = [
            (a, math.prod(math.comb(c, k) for c, k in zip(caps, a)),
             sum(k * w for k, w in zip(a, weights)))
            for a in itertools.product(*(range(c + 1) for c in caps)) if sum(a) == total
        ]
        assert list(_bounded_compositions(caps, weights, total)) == expected

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
        walk = _bounded_compositions(CountingCaps((1,) * n), (0,) * n, 1)
        assert sum(1 for _ in walk) == n
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

    def test_1200_rank_1_pieces(self, row_builds):
        """A first call builds the row only up to its r, and a repeat reuses it."""
        h = make_hn_type([(1, 1200 - i) for i in range(1200)])
        assert theta_oracle(h, 1) == Fraction(1)
        assert theta_oracle(h, 1) == Fraction(1)
        assert row_builds == [1]

    def test_reads_only_the_ranks_and_slopes(self, monkeypatch):
        """No polygon, no closed form, and pieces in any slope order."""
        module = importlib.import_module("flagnef.theta")  # the package binds theta() here
        for name in ("theta", "_theta_value"):
            monkeypatch.setattr(module, name, None)
        pieces = (HNPiece(1, -3), HNPiece(4, 8), HNPiece(2, 1), HNPiece(3, 9))
        h = SimpleNamespace(pieces=pieces)
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


class TestOracleRow:
    def test_every_r_of_a_type_rebuilds_the_row_log_many_times(self, row_builds):
        """Over r = 1..n-1 the row doubles instead of being rebuilt per r, so
        a whole type is O(units * rank) steps, not O(rank**3)."""
        n = 400
        h = make_hn_type([(1, n - i) for i in range(n)])
        for r in range(1, n):
            assert theta_oracle(h, r) == theta(h, r).theta
        assert len(row_builds) <= math.ceil(math.log2(n)) + 1
        assert row_builds[0] == 1 and row_builds[-1] == n - 1

    def test_every_small_type_builds_its_row_once(self, row_builds):
        """Over the corpus at every r, ascending, the first call on a type
        builds its whole row, to rank - 1, and no later call rebuilds it."""
        types = 0
        for h in iter_hn_types(6, 4):  # fresh types, their slots unfilled
            for r in range(1, h.rank):
                assert theta_oracle(h, r) == theta(h, r).theta
            if h.rank > 1:
                types += 1
                assert row_builds[-1] == h.rank - 1
        assert len(row_builds) == types > 6000

    def test_threads_sharing_fresh_types(self):
        """Four threads share each fresh type and ask for every r, two
        ascending and two descending: every answer of the oracle, the block
        walk, theta and the cone matches the brute force, whichever row,
        slope or theta entry another thread put in a slot first."""
        rng = random.Random(12)
        pieces = [[tuple(p) for p in random_hn_type(rng, max_rank=9).pieces] for _ in range(40)]
        expected = []
        for ps in pieces:
            h = make_hn_type(ps)
            expected.append([(m, brute_blocks(h, r), m, m) for r in range(1, h.rank)
                             for m in [brute_min_slope_sum(h, r)]])
        types = [make_hn_type(ps) for ps in pieces]
        start, errors = threading.Barrier(4, timeout=30), []

        def work(descending):
            try:
                for h, want in zip(types, expected):
                    start.wait()  # all four race on the unfilled slot
                    rs = range(h.rank - 1, 0, -1) if descending else range(1, h.rank)
                    for r in rs:
                        got = (theta_oracle(h, r), [tuple(b) for b in enumerate_va(h, r)],
                               theta(h, r).theta, grassmann_nef_cone(h, r).theta_used)
                        if got != want[r - 1]:
                            errors.append((h, r, got))
            except Exception as exc:  # reported below, in the test's thread
                errors.append(exc)
                start.abort()

        threads = [threading.Thread(target=work, args=(i % 2,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []

    def test_a_rank_10_8_piece_sizes_no_table(self, row_builds, table_builds):
        h = make_hn_type([[10**8, 0], [1, -1]])
        assert theta_oracle(h, 1) == Fraction(-1)
        assert [tuple(b) for b in enumerate_va(h, 1)] == [
            ((0, 1), 1, -1, Fraction(-1)),
            ((1, 0), 10**8, 0, Fraction(0)),
        ]
        assert row_builds == [1] and table_builds == []
        assert len(h._oracle[3]) == 2

    @given(hn_types_with_r(), hn_types_with_r(), st.randoms(use_true_random=False))
    def test_interleaved_types_in_any_order(self, h_r, g_r, rnd):
        """Two types whose calls interleave, one with r descending and one
        with r shuffled, then both again shuffled: every answer matches the
        brute force on a fresh copy of its type."""
        h, g = h_r[0], g_r[0]
        down = [(h, r) for r in range(h.rank - 1, 0, -1)]
        mixed = [(g, r) for r in rnd.sample(range(1, g.rank), g.rank - 1)]
        calls = [c for pair in itertools.zip_longest(down, mixed) for c in pair if c]
        calls += rnd.sample(down + mixed, len(down) + len(mixed))
        for x, r in calls:
            fresh = make_hn_type([(p.rank, p.degree) for p in x.pieces])
            assert theta_oracle(x, r) == brute_min_slope_sum(fresh, r)
            assert [tuple(b) for b in enumerate_va(x, r)] == brute_blocks(fresh, r)


class TestOracleSteps:
    """The bound on the inner steps of one row build, top * sum(min(r_i, top)),
    which oracle-check compares with its limit."""

    def test_rank_1_pieces(self):
        assert _oracle_steps(make_hn_type([(1, 1200 - i) for i in range(1200)]), 1) == 1200
        assert _oracle_steps(make_hn_type([(1, 4000 - i) for i in range(4000)]), 3999) == 3999 * 4000

    def test_each_rank_is_capped_at_top(self):
        assert _oracle_steps(make_hn_type([[10**8, 0], [1, -1]]), 1) == 2

    def test_a_row_is_built_whole_when_that_is_cheap(self):
        """_oracle_top, the end of the row a call builds: rank - 1 when the
        whole row takes at most 256 steps, else r or twice the old end,
        whichever is larger, and never past rank - 1."""
        h = make_hn_type([(17, 1)])  # the whole row takes 16 * 16 = 256 steps
        assert [_oracle_top(h, r) for r in (1, 8, 16)] == [(16, 256)] * 3
        h = make_hn_type([(18, 1)])  # 17 * 17 = 289 steps
        assert [_oracle_top(h, r) for r in (1, 12, 13, 17)] == [(1, 1), (12, 144), (13, 169),
                                                                   (17, 289)]
        assert [_oracle_top(h, r, top) for r, top in ((5, 4), (5, 2), (12, 10))] == [
            (8, 64), (5, 25), (17, 289)]

    @pytest.mark.parametrize("pieces", [[(17, 1)], [(18, 1)], [(1, 2), (2, 1), (1, 0)],
                                        [(30, 1), (1, 0)], [(1, 40 - i) for i in range(40)]])
    def test_a_plan_counts_the_steps_of_its_row(self, pieces):
        h = make_hn_type(pieces)
        for r in range(1, h.rank):
            for top in (0, r // 2, r - 1):
                end, steps = _oracle_top(h, r, top)
                assert steps == _oracle_steps(h, end)

    def test_a_whole_row_build_counts_its_steps_once(self, monkeypatch, row_builds):
        module = importlib.import_module("flagnef.theta")
        count, counted = module._oracle_steps, []

        def counting(h, top):
            counted.append(top)
            return count(h, top)

        monkeypatch.setattr(module, "_oracle_steps", counting)
        h = make_hn_type([(1, 2), (2, 1), (1, 0)])  # a whole row of 3 * 4 steps
        assert theta_oracle(h, 1) == 0
        assert (row_builds, counted) == ([3], [3])


class TestOracleLimit:
    """theta_oracle refuses a row build of more than ORACLE_LIMIT steps where
    it plans the build, before any work, and pays nothing on a call answered
    from a row it has already built."""

    THETA = importlib.import_module("flagnef.theta")  # flagnef.theta is the function
    REFUSED = ("theta_oracle at r = 100000 would build its row to 100000 in 20000000000 steps, "
               "more than {} oracle steps")

    def test_a_large_r_is_refused_at_once(self, row_builds):
        h = make_hn_type([[10**8, 1], [10**8, 0]])  # to r = 10**5: 10**5 * 2 * 10**5 steps
        start = time.perf_counter()
        with pytest.raises(LimitExceededError) as info:
            theta_oracle(h, 10**5)
        assert time.perf_counter() - start < 0.1
        assert str(info.value) == self.REFUSED.format(self.THETA.ORACLE_LIMIT)
        assert row_builds == [] and h._oracle[3] == [0]
        assert theta_oracle(h, 1) == 0 and row_builds == [1]

    def test_the_bound_is_the_steps_of_the_row_built(self, monkeypatch, row_builds):
        """Pieces of rank 100 and 1: the whole row is past the 256-step floor,
        so r = 10 builds the row to 10, 10 * (10 + 1) steps, and r = 11 then
        doubles it to 20, 20 * (20 + 1) steps."""
        pieces = [[100, 1], [1, 0]]
        monkeypatch.setattr(self.THETA, "ORACLE_LIMIT", 109)
        with pytest.raises(LimitExceededError, match="more than 109 oracle steps"):
            theta_oracle(make_hn_type(pieces), 10)
        assert row_builds == []
        monkeypatch.setattr(self.THETA, "ORACLE_LIMIT", 110)
        h = make_hn_type(pieces)
        assert theta_oracle(h, 10) == Fraction(9, 100) and row_builds == [10]
        monkeypatch.setattr(self.THETA, "ORACLE_LIMIT", 419)
        with pytest.raises(LimitExceededError, match="more than 419 oracle steps"):
            theta_oracle(h, 11)
        assert row_builds == [10] and len(h._oracle[3]) == 11
        monkeypatch.setattr(self.THETA, "ORACLE_LIMIT", 420)
        assert theta_oracle(h, 11) == Fraction(1, 10) and row_builds == [10, 20]

    def test_a_built_row_answers_past_the_limit(self, monkeypatch, row_builds):
        h = make_hn_type([(1, 2), (2, 1), (1, 0)])
        assert theta_oracle(h, 1) == 0 and row_builds == [3]
        monkeypatch.setattr(self.THETA, "ORACLE_LIMIT", 0)
        assert [theta_oracle(h, r) for r in (3, 1, 2)] == [1, 0, Fraction(1, 2)]
        assert row_builds == [3]
        with pytest.raises(LimitExceededError, match="more than 0 oracle steps"):
            theta_oracle(make_hn_type([(1, 2), (2, 1), (1, 0)]), 1)


POISON = Fraction(10**9, 7)


class _Poisoned(dict):
    """A table whose every read answers POISON."""

    def get(self, key, default=None):
        return POISON

    __getitem__ = get

    def __contains__(self, key):
        return True


class TestThetaTable:
    """theta and both nef cones return one kept Fraction per (type, r) and one
    per piece slope, from the type's ``_theta`` slot, which shares nothing
    with the oracle's ``_oracle`` slot."""

    ORDERS = list(itertools.permutations(("theta", "gr", "flag")))

    @staticmethod
    def check(h, order, ctx=FieldContext()):
        """Ask every r of h of theta, the Grassmann cone and the flag cone
        1..rank-1, in ``order``, twice: each theta(r) is one object, equal
        to a fresh Fraction, and each mu_t is one object per t, the slope of
        piece t."""
        rs, flag = range(1, h.rank), FlagType(tuple(range(1, h.rank)))
        ask = {"theta": lambda: tuple(theta(h, r).theta for r in rs),
               "gr": lambda: tuple(grassmann_nef_cone(h, r, ctx).theta_used for r in rs),
               "flag": lambda: flag_nef_cone(h, flag, ctx).thetas_used}
        got = [ask[who]() for who in order + order]
        for r, values in zip(rs, zip(*got)):
            assert all(v is values[0] for v in values), (h.pieces, r)
            _, num, r_t, _ = _theta_value(h, r)
            assert values[0] == Fraction(num, r_t)
        mus = {}
        for r in rs:
            bd = theta(h, r)
            assert mus.setdefault(bd.t, bd.mu_t) is bd.mu_t
            assert bd.mu_t == h.pieces[bd.t - 1].slope

    def test_every_corpus_type_at_every_r(self, corpus):
        for i, h in enumerate(h for h in corpus if h.rank > 1):
            self.check(make_hn_type(h.pieces), self.ORDERS[i % len(self.ORDERS)])

    @given(hn_types_with_r(max_pieces=6, piece_rank=4), st.sampled_from(ORDERS),
           st.sampled_from([FieldContext(), FieldContext(3, 2)]))
    def test_random_types_in_any_order(self, h_r, order, ctx):
        self.check(h_r[0], order, ctx)

    def test_every_type_starts_with_an_empty_table(self):
        """The table is bound with the type, however it is built, as is the
        oracle's slot, to None, and a refused r adds nothing to either."""
        h = make_hn_type([(1, 2), (2, 1), (1, 0)])
        built = [h, hn_from_splitting_type([3, 1, 1, 0]), h.dual(), h.twist(2),
                 h.cover_pullback(3), h.frobenius_pullback(FieldContext(3, 1))]
        for g in [*built, *iter_hn_types()]:
            assert type(g._theta) is dict and g._theta == {} and g._oracle is None
        readers = (theta, threshold_index, classify_tautological, grassmann_nef_cone,
                   theta_oracle, enumerate_va)
        for read, r in itertools.product(readers, (0, h.rank, "2")):
            with pytest.raises((QuotientRankOutOfRangeError, TypeError)):
                read(h, r)
        assert h._theta == {} and h._oracle is None

    def test_a_poisoned_theta_table_leaves_the_oracle_alone(self, corpus):
        """The oracle, the trichotomy and the threshold index read no kept
        Fraction: the last two read the polygon's integers."""
        for h in [h for h in corpus if h.rank > 1][::10]:
            g = make_hn_type(h.pieces)
            object.__setattr__(g, "_theta", _Poisoned())
            flag = FlagType(tuple(range(1, g.rank)))
            for r in range(1, g.rank):
                assert theta(g, r).theta is theta(g, r).mu_t is POISON  # the table is read
                assert grassmann_nef_cone(g, r).theta_used is POISON
                assert theta_oracle(g, r) == brute_min_slope_sum(h, r)
                assert classify_tautological(g, r) is classify_tautological(h, r)
                assert threshold_index(g, r) == threshold_index(h, r)
            assert set(flag_nef_cone(g, flag).thetas_used) <= {POISON}

    def test_a_poisoned_oracle_table_leaves_theta_and_the_cones_alone(self, corpus):
        for h in [h for h in corpus if h.rank > 1][::10]:
            g = make_hn_type(h.pieces)
            _oracle_data(g, 1)
            object.__setattr__(g, "_oracle", g._oracle[:4] + (_Poisoned(),) + g._oracle[5:])
            flag = FlagType(tuple(range(1, g.rank)))
            for r in range(1, g.rank):
                assert theta_oracle(g, r) is POISON  # the oracle's slope table is read
                expected = brute_min_slope_sum(h, r)
                bd = theta(g, r)
                assert (bd.theta, bd.mu_t) == (expected, h.pieces[bd.t - 1].slope)
                assert grassmann_nef_cone(g, r).theta_used == expected
                assert flag_nef_cone(g, flag).thetas_used[r - 1] == expected

    def test_equality_hashing_repr_copy_and_pickle_ignore_the_table(self):
        pieces = [(1, 2), (2, 1), (1, 0)]
        h, fresh = make_hn_type(pieces), make_hn_type(pieces)
        theta(h, 2), flag_nef_cone(h, FlagType((1, 3))), theta_oracle(h, 2)
        object.__setattr__(h, "_theta", _Poisoned())
        assert (h == fresh, hash(h), repr(h)) == (True, hash(fresh), repr(fresh))
        for twin in (copy.copy(h), copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
            assert twin == h and twin._theta == {} and twin._oracle is None
            assert theta(twin, 2) == theta(fresh, 2)
            assert grassmann_nef_cone(twin, 3) == grassmann_nef_cone(fresh, 3)


class TestBottomFillNesting:
    """The flag cone rests on nested bottom fills: the composition theta(h, r)
    names through (t, s), the pieces below t whole and s units of piece t,
    is componentwise at most the one at any r' > r."""

    @staticmethod
    def bottom_fill(h, r):
        bd = theta(h, r)
        a = [0] * (bd.t - 1) + [bd.s] + [p.rank for p in h.pieces[bd.t:]]
        assert all(0 <= k <= p.rank for k, p in zip(a, h.pieces)) and sum(a) == r
        assert sum(k * p.slope for k, p in zip(a, h.pieces)) == bd.theta
        return a

    def test_every_corpus_type_at_every_pair_of_r(self, corpus):
        pairs = 0
        for h in corpus:
            fills = [self.bottom_fill(h, r) for r in range(1, h.rank)]
            for low, high in itertools.combinations(fills, 2):
                assert all(x <= y for x, y in zip(low, high)), (h.pieces, low, high)
                pairs += 1
        assert pairs > 30_000


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
