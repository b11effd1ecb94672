from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagnef import (
    FieldContext,
    PositivityClass,
    QuotientRankOutOfRangeError,
    anticanonical_is_nef,
    classify_tautological,
    grassmann_nef_cone,
    is_ample_gr,
    is_nef_gr,
    make_hn_type,
    relative_anticanonical_class,
    theta,
)
from helpers import hn_types_with_r


class TestClassify:
    def test_degree_zero_semistable_is_nef_not_ample(self):
        assert classify_tautological(make_hn_type([(2, 0)]), 1) is PositivityClass.NEF_NOT_AMPLE

    def test_unstable_with_negative_invariant_is_not_nef(self):
        assert classify_tautological(make_hn_type([(1, 1), (2, -1)]), 2) is PositivityClass.NOT_NEF

    def test_positive_invariant_is_ample(self):
        assert classify_tautological(make_hn_type([(1, 2), (1, 1)]), 1) is PositivityClass.AMPLE

    def test_out_of_range(self):
        with pytest.raises(QuotientRankOutOfRangeError):
            classify_tautological(make_hn_type([(2, 0)]), 2)

    @given(hn_types_with_r())
    def test_matches_the_sign_of_the_invariant(self, h_r):
        h, r = h_r
        value = theta(h, r).theta
        cls = classify_tautological(h, r)
        if value > 0:
            assert cls is PositivityClass.AMPLE
        elif value == 0:
            assert cls is PositivityClass.NEF_NOT_AMPLE
        else:
            assert cls is PositivityClass.NOT_NEF

    @given(hn_types_with_r(), st.integers(1, 3))
    def test_invariant_under_cover_pullback(self, h_r, m):
        h, r = h_r
        assert classify_tautological(h.cover_pullback(m), r) is classify_tautological(h, r)

    @given(hn_types_with_r(), st.sampled_from([2, 3, 5]), st.integers(0, 2))
    def test_invariant_under_frobenius_pullback(self, h_r, p, delta):
        h, r = h_r
        ctx = FieldContext(p, delta)
        assert classify_tautological(h.frobenius_pullback(ctx), r) is classify_tautological(h, r)


class TestAnticanonicalClass:
    @pytest.mark.parametrize(
        "pieces,r,expected",
        [
            ([(2, 0)], 1, (Fraction(2), Fraction(0))),
            ([(1, 1), (1, -1)], 1, (Fraction(2), Fraction(0))),
            ([(1, 2), (1, 1)], 1, (Fraction(2), Fraction(-3))),
        ],
    )
    def test_examples(self, pieces, r, expected):
        c = relative_anticanonical_class(make_hn_type(pieces), r)
        assert (c.x, c.y) == expected

    def test_reduces_to_the_classical_single_piece_formula(self):
        # for one semistable piece of rank n and degree d the class must be
        # O(n) twisted down by r copies of the determinant: (n, -r*d)
        for n, d in [(3, 2), (4, -5), (5, 0)]:
            for r in range(1, n):
                c = relative_anticanonical_class(make_hn_type([(n, d)]), r)
                assert (c.x, c.y) == (Fraction(n), Fraction(-r * d))

    def test_out_of_range(self):
        with pytest.raises(QuotientRankOutOfRangeError):
            relative_anticanonical_class(make_hn_type([(3, 1)]), 0)


class TestAnticanonicalNef:
    def test_semistable_degree_zero_on_the_boundary(self):
        h = make_hn_type([(2, 0)])
        assert anticanonical_is_nef(h, 1)
        cone = grassmann_nef_cone(h, 1)
        c = relative_anticanonical_class(h, 1)
        assert is_nef_gr(c, cone) and not is_ample_gr(c, cone)

    def test_unstable_fails(self):
        assert not anticanonical_is_nef(make_hn_type([(1, 1), (1, -1)]), 1)

    def test_semistable_positive_degree(self):
        assert anticanonical_is_nef(make_hn_type([(3, 1)]), 2)

    @given(hn_types_with_r())
    def test_equivalent_to_semistability(self, h_r):
        h, r = h_r
        assert anticanonical_is_nef(h, r) == (len(h) == 1)

    @given(hn_types_with_r())
    def test_never_interior(self, h_r):
        h, r = h_r
        cone = grassmann_nef_cone(h, r)
        assert not is_ample_gr(relative_anticanonical_class(h, r), cone)

    def test_builds_no_field_context(self, monkeypatch):
        import flagnef.hn as hn

        calls = []
        monkeypatch.setattr(hn, "_is_prime", lambda n: calls.append(n) or True)
        h = make_hn_type([(1, 1), (2, -1)])
        for r in (1, 2):
            assert not anticanonical_is_nef(h, r)
        assert anticanonical_is_nef(make_hn_type([(3, 1)]), 1)
        assert calls == []

    @given(hn_types_with_r())
    def test_agrees_with_membership_in_the_cone(self, h_r):
        h, r = h_r
        c = relative_anticanonical_class(h, r)
        assert anticanonical_is_nef(h, r) == is_nef_gr(c, grassmann_nef_cone(h, r))


class TestTrichotomyTotality:
    @given(hn_types_with_r())
    def test_agrees_with_cone_membership_of_the_tautological_class(self, h_r):
        from flagnef import NSClassGr

        h, r = h_r
        cone = grassmann_nef_cone(h, r)
        o1 = NSClassGr(1, 0)
        cls = classify_tautological(h, r)
        assert (cls is PositivityClass.AMPLE) == is_ample_gr(o1, cone)
        assert (cls is PositivityClass.NOT_NEF) == (not is_nef_gr(o1, cone))
        assert (cls is PositivityClass.NEF_NOT_AMPLE) == (
            is_nef_gr(o1, cone) and not is_ample_gr(o1, cone)
        )
