import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagnef import (
    CHAR_ZERO,
    DimensionMismatchError,
    FieldContext,
    FlagType,
    IndexOutOfRangeError,
    InvalidFlagTypeError,
    LimitExceededError,
    NSClassFlag,
    NSClassGr,
    QuotientRankOutOfRangeError,
    RayGr,
    flag_nef_cone,
    grassmann_nef_cone,
    is_ample_gr,
    is_nef_flag,
    is_nef_gr,
    make_hn_type,
    primitive_ray,
    pullback_to_flag,
    theta,
)
from flagnef import cli, cones
from flagnef.cones import NU_LIMIT
from helpers import (
    hn_types_with_r,
    probe_classes,
    random_hn_type,
    reference_ample_gr,
    reference_nef_flag,
    reference_nef_gr,
)

rationals = st.fractions(min_value=-60, max_value=60, max_denominator=7)


def solve_membership(rays, coords):
    """Generic nonnegative-combination solve over exact rationals: the rays
    are triangular (one per coordinate slot plus the fiber), so the
    coefficients are determined directly."""
    *theta_rays, fiber = rays
    coeffs = []
    for i, ray in enumerate(theta_rays):
        beta = Fraction(coords[i], ray[i])
        coeffs.append(beta)
    alpha = coords[-1] - sum(beta * ray[-1] for beta, ray in zip(coeffs, theta_rays))
    coeffs.append(Fraction(alpha, fiber[-1]))
    return all(c >= 0 for c in coeffs)


class TestPrimitiveRay:
    def test_clears_denominators(self):
        assert primitive_ray((1, Fraction(-1, 2))) == (2, -1)

    def test_divides_by_gcd(self):
        assert primitive_ray((2, 0)) == (1, 0)
        assert primitive_ray((4, -6)) == (2, -3)

    def test_preserves_direction(self):
        assert primitive_ray((0, -3)) == (0, -1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            primitive_ray((0, 0, 0))


class TestGrassmannCone:
    def test_semistable_degree_zero(self):
        cone = grassmann_nef_cone(make_hn_type([(2, 0)]), 1)
        assert cone.fiber_ray == RayGr(0, 1)
        assert cone.theta_ray == RayGr(1, 0)
        assert cone.p_delta == 1

    def test_split_positive_degrees(self):
        cone = grassmann_nef_cone(make_hn_type([(1, 2), (1, 1)]), 1)
        assert cone.theta_ray == RayGr(1, -1)
        assert cone.theta_used == Fraction(1)

    def test_char_p_normalization(self):
        cone = grassmann_nef_cone(make_hn_type([(1, 2), (1, 0)]), 1, FieldContext(2, 1))
        assert cone.theta_used == Fraction(0)
        assert cone.p_delta == 2
        assert (cone.fiber_ray, cone.theta_ray) == (RayGr(0, 1), RayGr(1, 0))

    def test_fractional_theta_gives_integer_ray(self):
        cone = grassmann_nef_cone(make_hn_type([(2, 1), (1, -1)]), 3 - 1)
        # theta = 1/2 - 1 = -1/2, so the ray through (1, 1/2) is (2, 1)
        assert cone.theta_used == Fraction(-1, 2)
        assert cone.theta_ray == RayGr(2, 1)

    def test_out_of_range(self):
        with pytest.raises(QuotientRankOutOfRangeError):
            grassmann_nef_cone(make_hn_type([(2, 0)]), 2)


class TestGrassmannMembership:
    def test_boundary_generator_is_nef(self):
        h = make_hn_type([(1, 2), (1, 1)])
        cone = grassmann_nef_cone(h, 1)
        assert is_nef_gr(NSClassGr(1, -cone.theta_used), cone)

    def test_negative_fiber_coefficient_fails(self):
        cone = grassmann_nef_cone(make_hn_type([(2, 0)]), 1)
        assert not is_nef_gr(NSClassGr(-1, 5), cone)

    def test_anticanonical_of_unstable_bundle_fails(self):
        cone = grassmann_nef_cone(make_hn_type([(1, 1), (1, -1)]), 1)
        assert not is_nef_gr(NSClassGr(2, 0), cone)

    def test_tautological_class_interior_iff_positive(self):
        o1 = NSClassGr(1, 0)
        ample_cone = grassmann_nef_cone(make_hn_type([(1, 2), (1, 1)]), 1)
        flat_cone = grassmann_nef_cone(make_hn_type([(2, 0)]), 1)
        assert is_ample_gr(o1, ample_cone)
        assert is_nef_gr(o1, flat_cone) and not is_ample_gr(o1, flat_cone)

    def test_fiber_class_is_never_ample(self):
        cone = grassmann_nef_cone(make_hn_type([(1, 2), (1, 1)]), 1)
        assert is_nef_gr(NSClassGr(0, 1), cone)
        assert not is_ample_gr(NSClassGr(0, 1), cone)

    @given(hn_types_with_r())
    def test_generators_are_extremal(self, h_r):
        """Each generator satisfies exactly one defining inequality with
        equality and the other strictly."""
        h, r = h_r
        cone = grassmann_nef_cone(h, r)
        for ray in (cone.fiber_ray, cone.theta_ray):
            x, y = Fraction(ray.u), Fraction(ray.v)
            tight = (x == 0), (cone.p_delta * y + cone.theta_used * x == 0)
            assert is_nef_gr(NSClassGr(x, y), cone)
            assert sum(tight) == 1

    @given(hn_types_with_r(), rationals, rationals)
    def test_closed_form_matches_generic_solve(self, h_r, x, y):
        h, r = h_r
        cone = grassmann_nef_cone(h, r)
        rays = [(cone.theta_ray.u, cone.theta_ray.v), (cone.fiber_ray.u, cone.fiber_ray.v)]
        assert is_nef_gr(NSClassGr(x, y), cone) == solve_membership(rays, (x, y))


class TestIntegerKernels:
    """Rays and verdicts computed in integers agree with the plain Fraction
    formulas."""

    @given(hn_types_with_r(), st.sampled_from([2, 3, 5]), st.integers(0, 3))
    def test_rays_match_primitive_ray(self, h_r, p, delta):
        h, r = h_r
        ctx = FieldContext(p, delta)
        value = theta(h, r).theta
        cone = grassmann_nef_cone(h, r, ctx)
        assert (cone.theta_ray.u, cone.theta_ray.v) == primitive_ray((p**delta, -value))
        dims = sorted({1, r, h.rank - 1})
        flag_cone = flag_nef_cone(h, FlagType(tuple(dims)), ctx)
        for i, r_i in enumerate(dims):
            coords = [0] * (len(dims) + 1)
            coords[i], coords[-1] = p**delta, -theta(h, r_i).theta
            assert flag_cone.rays[i] == primitive_ray(coords)

    @given(hn_types_with_r(), st.integers(0, 2), rationals, rationals, st.booleans())
    def test_grassmann_membership(self, h_r, delta, x, y, on_boundary):
        h, r = h_r
        cone = grassmann_nef_cone(h, r, FieldContext(3, delta))
        pd = cone.p_delta
        if on_boundary:  # p_delta * y + theta * x == 0 exactly
            y = -cone.theta_used * x / pd
        law = pd * y + cone.theta_used * x
        assert is_nef_gr(NSClassGr(x, y), cone) == (x >= 0 and law >= 0)
        assert is_ample_gr(NSClassGr(x, y), cone) == (x > 0 and law > 0)

    @given(hn_types_with_r(), st.integers(0, 2), st.lists(rationals, min_size=3, max_size=3),
           rationals, st.booleans())
    def test_flag_membership(self, h_r, delta, xs, y, on_boundary):
        h, r = h_r
        dims = sorted({1, r, h.rank - 1})
        cone = flag_nef_cone(h, FlagType(tuple(dims)), FieldContext(2, delta))
        xs = xs[: len(dims)]
        law = sum(t * xi for t, xi in zip(cone.thetas_used, xs))
        if on_boundary:
            y = -law / cone.p_delta
        law += cone.p_delta * y
        expected = all(xi >= 0 for xi in xs) and law >= 0
        assert is_nef_flag(NSClassFlag(tuple(xs), y), cone) == expected


class TestRayBasisMembership:
    """The tests read a cone's integer rays; the sign law over theta_used
    and p_delta is kept as the reference in ``helpers``."""

    CONTEXTS = (CHAR_ZERO, FieldContext(2, 1), FieldContext(3, 2))

    def test_agrees_with_the_sign_law_on_the_corpus(self, corpus):
        """Every corpus type at every r, in three field contexts, with the
        Grassmann cone and the flag {1, r, n - 1}: the verdicts match the
        reference, and a cone whose theta_used and p_delta are replaced by
        wrong values gets the same verdicts, since its rays decide.  A
        verdict depends only on the class and the cone, so each distinct
        cone is probed once."""
        mismatches, seen = [], set()
        for h in corpus:
            for r in range(1, h.rank):
                fl = FlagType(tuple(sorted({1, r, h.rank - 1})))
                for ctx in self.CONTEXTS:
                    cone = grassmann_nef_cone(h, r, ctx)
                    if cone not in seen:
                        seen.add(cone)
                        wrong = cone._replace(theta_used=cone.theta_used + 1,
                                              p_delta=cone.p_delta + 1)
                        for x, y in probe_classes([cone.theta_ray, cone.fiber_ray]):
                            c = NSClassGr(x, y)
                            expected = reference_nef_gr(c, cone), reference_ample_gr(c, cone)
                            for judged in (cone, wrong):
                                if (is_nef_gr(c, judged), is_ample_gr(c, judged)) != expected:
                                    mismatches.append((h, r, ctx, c, judged))
                    cone = flag_nef_cone(h, fl, ctx)
                    if cone not in seen:
                        seen.add(cone)
                        wrong = cone._replace(thetas_used=tuple(t + 1 for t in cone.thetas_used),
                                              p_delta=cone.p_delta + 1)
                        for *xs, y in probe_classes(cone.rays):
                            c = NSClassFlag(xs, y)
                            expected = reference_nef_flag(c, cone)
                            for judged in (cone, wrong):
                                if is_nef_flag(c, judged) != expected:
                                    mismatches.append((h, fl, ctx, c, judged))
        assert len(corpus) == 6064 and len(seen) > 10_000
        assert mismatches == []

    def test_reads_no_fraction_property(self, fraction_reads):
        """Each rational of the class is read once with as_integer_ratio;
        no Fraction.numerator or .denominator property is read."""
        h = make_hn_type([(1, 3), (2, 1), (1, -2)])
        cone = grassmann_nef_cone(h, 2, FieldContext(3, 1))
        flag_cone = flag_nef_cone(h, FlagType((1, 2, 3)), FieldContext(3, 1))
        classes = [NSClassGr(Fraction(1, 2), Fraction(-5, 3)), NSClassGr(-1, 4), NSClassGr(2, 9)]
        flag_classes = [NSClassFlag((1, Fraction(2, 3), 0), Fraction(-7, 2)),
                        NSClassFlag((1, -1, 0), 9), NSClassFlag((1, 0, 2), 9)]
        fraction_reads.clear()
        verdicts = [(is_nef_gr(c, cone), is_ample_gr(c, cone)) for c in classes]
        verdicts += [is_nef_flag(c, flag_cone) for c in flag_classes]
        assert fraction_reads == []
        assert verdicts == [(False, False), (False, False), (True, True), False, False, True]
        assert Fraction(1, 2).numerator == 1 and fraction_reads == ["numerator"]

    @pytest.mark.parametrize("ray", [RayGr(0, 1), RayGr(0, -1), (-1, 3), (0, 0)])
    def test_a_theta_ray_off_the_nef_cone_is_refused(self, ray):
        """A hand-built cone whose theta ray has u <= 0 is no nef cone:
        both tests name the ray in a ValueError before any verdict, even
        where x < 0 alone would decide."""
        cone = grassmann_nef_cone(make_hn_type([(1, 1), (1, 0)]), 1)._replace(theta_ray=ray)
        message = f"({ray[0]}, {ray[1]}) is not a nef-cone ray: its entry 1 must be positive"
        for c in (NSClassGr(0, -1), NSClassGr(-1, 0), NSClassGr(1, 1)):
            for test in (is_nef_gr, is_ample_gr):
                with pytest.raises(ValueError) as info:
                    test(c, cone)
                assert str(info.value) == message

    @pytest.mark.parametrize("rays,message", [
        (((0, 0, 0), (0, 1, -1), (0, 0, 1)), "(0, 0, 0) is not a nef-cone ray: its entry 1"),
        (((1, 0, 0), (0, -2, 3), (0, 0, 1)), "(0, -2, 3) is not a nef-cone ray: its entry 2"),
    ])
    def test_a_flag_ray_off_the_nef_cone_is_refused(self, rays, message):
        """The same for a flag cone whose ray i has u_i <= 0, checked for
        every ray before the first coordinate is judged."""
        h = make_hn_type([(1, 2), (1, 1), (1, 0)])
        cone = flag_nef_cone(h, FlagType((1, 2)))._replace(rays=rays)
        for xs, y in (((0, 0), -1), ((-1, 0), 5), ((1, 1), 1)):
            with pytest.raises(ValueError) as info:
                is_nef_flag(NSClassFlag(xs, y), cone)
            assert str(info.value) == message + " must be positive"

    @pytest.mark.parametrize("rays", [((1, 0, 0), (0, 0, 1)),
                                      ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1))])
    def test_a_flag_cone_without_nu_plus_one_rays_is_refused(self, rays):
        """With too few rays the sign loop would pair x_2 with the fiber ray
        (u_2 = 0) and judge x = (0, 0), y = -1 nef; any count but nu + 1 raises."""
        h = make_hn_type([(1, 2), (1, 1), (1, 0)])
        cone = flag_nef_cone(h, FlagType((1, 2)))._replace(rays=rays)
        with pytest.raises(ValueError) as info:
            is_nef_flag(NSClassFlag((0, 0), -1), cone)
        assert str(info.value) == f"a flag nef cone has nu + 1 = 3 rays, got {len(rays)}"


class TestFlagType:
    def test_must_increase(self):
        with pytest.raises(InvalidFlagTypeError):
            FlagType((2, 2))
        with pytest.raises(InvalidFlagTypeError):
            FlagType((3, 1))

    def test_must_be_positive(self):
        with pytest.raises(InvalidFlagTypeError):
            FlagType((0, 1))

    def test_must_be_nonempty(self):
        with pytest.raises(InvalidFlagTypeError):
            FlagType(())

    def test_nu(self):
        assert FlagType((1, 3, 4)).nu == 3


class TestFlagCone:
    def test_documented_example(self):
        h = make_hn_type([(1, 2), (1, 1), (1, 0)])
        cone = flag_nef_cone(h, FlagType((1, 2)))
        assert cone.thetas_used == (Fraction(0), Fraction(1))
        assert cone.rays == ((1, 0, 0), (0, 1, -1), (0, 0, 1))

    def test_semistable_degree_zero(self):
        cone = flag_nef_cone(make_hn_type([(3, 0)]), FlagType((1, 2)))
        assert cone.rays == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_single_step_reduces_to_grassmann(self):
        h = make_hn_type([(1, 3), (2, 1), (1, 0)])
        for r in range(1, h.rank):
            flag_cone = flag_nef_cone(h, FlagType((r,)))
            gr_cone = grassmann_nef_cone(h, r)
            assert flag_cone.rays == (
                (gr_cone.theta_ray.u, gr_cone.theta_ray.v),
                (gr_cone.fiber_ray.u, gr_cone.fiber_ray.v),
            )

    def test_flag_too_large_for_bundle(self):
        with pytest.raises(InvalidFlagTypeError):
            flag_nef_cone(make_hn_type([(3, 0)]), FlagType((1, 3)))

    def test_char_p_rays(self):
        h = make_hn_type([(1, 2), (1, 1), (1, 0)])
        cone = flag_nef_cone(h, FlagType((1, 2)), FieldContext(2, 1))
        # thetas 0 and 1; rays (2,0,0)->(1,0,0) and (0,2,-1)
        assert cone.p_delta == 2
        assert cone.rays == ((1, 0, 0), (0, 2, -1), (0, 0, 1))


class TestFlagConeLimit:
    """flag_nef_cone refuses a flag of more than NU_LIMIT quotient
    dimensions before any ray is built."""

    def test_a_long_flag_is_refused_at_once(self, monkeypatch):
        def no_ray(h, r):  # a ray reads theta first; fail before 10**10 entries are built
            raise AssertionError("a ray was built")

        monkeypatch.setattr(cones, "_theta_value", no_ray)
        h, fl = make_hn_type([(10**6, 0)]), FlagType(range(1, 10**5 + 1))
        start = time.perf_counter()
        with pytest.raises(LimitExceededError) as info:
            flag_nef_cone(h, fl)
        assert time.perf_counter() - start < 0.1
        assert str(info.value) == (f"a flag nef cone takes at most {NU_LIMIT} quotient "
                                   "dimensions, got 100000")

    def test_the_limit_is_the_longest_flag_built(self, monkeypatch):
        monkeypatch.setattr(cones, "NU_LIMIT", 3)
        h = make_hn_type([(1, 4), (2, 1), (2, 0)])
        assert len(flag_nef_cone(h, FlagType((1, 2, 4))).rays) == 4
        with pytest.raises(LimitExceededError, match="at most 3 quotient dimensions, got 4"):
            flag_nef_cone(h, FlagType((1, 2, 3, 4)))

    def test_an_invalid_flag_is_still_invalid(self):
        with pytest.raises(InvalidFlagTypeError, match="must be < rank"):
            flag_nef_cone(make_hn_type([(10, 0)]), FlagType(range(1, NU_LIMIT + 2)))

    def test_the_cli_keeps_no_limit_of_its_own(self):
        assert not hasattr(cli, "FLAG_LIMIT")


class TestFlagMembership:
    def test_generators_are_nef(self):
        h = make_hn_type([(1, 2), (1, 1), (1, 0)])
        cone = flag_nef_cone(h, FlagType((1, 2)))
        for ray in cone.rays:
            assert is_nef_flag(NSClassFlag(tuple(ray[:-1]), ray[-1]), cone)

    def test_negative_coordinate_fails(self):
        h = make_hn_type([(1, 2), (1, 1), (1, 0)])
        cone = flag_nef_cone(h, FlagType((1, 2)))
        assert not is_nef_flag(NSClassFlag((Fraction(-1), Fraction(1)), Fraction(5)), cone)

    def test_boundary_class(self):
        h = make_hn_type([(1, 2), (1, 1), (1, 0)])
        cone = flag_nef_cone(h, FlagType((1, 2)))
        assert is_nef_flag(NSClassFlag((Fraction(1), Fraction(1)), Fraction(-1)), cone)
        assert not is_nef_flag(NSClassFlag((Fraction(1), Fraction(1)), Fraction(-2)), cone)

    def test_dimension_mismatch(self):
        h = make_hn_type([(1, 2), (1, 1), (1, 0)])
        cone = flag_nef_cone(h, FlagType((1, 2)))
        with pytest.raises(DimensionMismatchError):
            is_nef_flag(NSClassFlag((Fraction(1),), Fraction(0)), cone)

    def test_dimension_mismatch_comes_before_any_sign_verdict(self):
        """A class of the wrong length is rejected even when a negative
        coordinate alone would decide 'not nef'."""
        cone = flag_nef_cone(make_hn_type([(1, 2), (1, 1), (1, 0)]), FlagType((1, 2)))
        for xs in ((-1,), (-1, 0, 0), (0, 0, -1), (-1, -1, -1)):
            with pytest.raises(DimensionMismatchError) as info:
                is_nef_flag(NSClassFlag(xs, 5), cone)
            assert str(info.value) == f"class has {len(xs)} tautological coordinates, cone expects 2"

    @pytest.mark.parametrize("x", ["12", "-1", "", b"12"], ids=["digits", "minus", "empty", "bytes"])
    def test_class_coordinates_cannot_be_a_string(self, x):
        """A string is not read character by character: "12" used to become
        x = (1, 2), and "-1" failed inside Fraction."""
        with pytest.raises(TypeError) as info:
            NSClassFlag(x, 0)
        assert str(info.value) == f"x must be an iterable of rationals, not {type(x).__name__}"


class TestPullbackToFlag:
    def test_theta_generator_pulls_back_to_flag_generator(self):
        h = make_hn_type([(1, 2), (1, 1), (1, 0)])
        fl = FlagType((1, 2))
        cone = flag_nef_cone(h, fl)
        for i, r_i in enumerate(fl.quotient_dims, start=1):
            gr_cone = grassmann_nef_cone(h, r_i)
            pulled = pullback_to_flag(i, NSClassGr(1, -gr_cone.theta_used), fl)
            assert primitive_ray((*pulled.x, pulled.y)) == cone.rays[i - 1]

    def test_fiber_class_pulls_back_to_fiber_class(self):
        fl = FlagType((1, 2))
        pulled = pullback_to_flag(2, NSClassGr(0, 1), fl)
        assert (pulled.x, pulled.y) == ((Fraction(0), Fraction(0)), Fraction(1))

    def test_index_out_of_range(self):
        fl = FlagType((1, 2))
        for i in (0, 3, -1):
            with pytest.raises(IndexOutOfRangeError):
                pullback_to_flag(i, NSClassGr(1, 0), fl)

    @given(hn_types_with_r(), rationals, rationals)
    def test_membership_is_preserved_and_reflected(self, h_r, x, y):
        """A Grassmann class is nef iff its pullback to any flag is nef."""
        h, r = h_r
        dims = sorted({1, r, h.rank - 1})
        fl = FlagType(tuple(dims))
        i = dims.index(r) + 1
        gr_cone = grassmann_nef_cone(h, r)
        flag_cone = flag_nef_cone(h, fl)
        c = NSClassGr(x, y)
        assert is_nef_flag(pullback_to_flag(i, c, fl), flag_cone) == is_nef_gr(c, gr_cone)


class TestFlagProperties:
    @given(hn_types_with_r())
    def test_rays_are_primitive_integers(self, h_r):
        h, r = h_r
        fl = FlagType(tuple(sorted({1, r})))
        cone = flag_nef_cone(h, fl)
        import math

        for ray in cone.rays:
            assert all(isinstance(c, int) for c in ray)
            assert math.gcd(*ray) == 1

    @given(hn_types_with_r())
    def test_generators_are_extremal(self, h_r):
        """Each generator makes exactly nu of the nu+1 defining inequalities
        tight (it spans an edge of the simplicial cone)."""
        h, r = h_r
        fl = FlagType(tuple(sorted({1, r, max(1, h.rank - 2)})))
        cone = flag_nef_cone(h, fl)
        nu = fl.nu
        for ray in cone.rays:
            xs = [Fraction(c) for c in ray[:-1]]
            y = Fraction(ray[-1])
            assert is_nef_flag(NSClassFlag(tuple(xs), y), cone)
            tight = [xi == 0 for xi in xs]
            law = cone.p_delta * y + sum(t * xi for t, xi in zip(cone.thetas_used, xs))
            tight.append(law == 0)
            assert sum(tight) == nu

    def test_closed_form_matches_generic_solve_on_random_classes(self):
        rng = random.Random(99)
        for _ in range(200):
            h = random_hn_type(rng, max_rank=8, degree_bound=9)
            dims = sorted(rng.sample(range(1, h.rank), k=rng.randint(1, min(3, h.rank - 1))))
            fl = FlagType(tuple(dims))
            cone = flag_nef_cone(h, fl)
            coords = [
                Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(fl.nu + 1)
            ]
            c = NSClassFlag(tuple(coords[:-1]), coords[-1])
            assert is_nef_flag(c, cone) == solve_membership(cone.rays, coords)


class TestCharPConsistency:
    @given(hn_types_with_r(), st.sampled_from([2, 3, 5]), st.integers(1, 2))
    def test_grassmann_rays_are_stable_under_stabilized_pullback(self, h_r, p, delta):
        h, r = h_r
        ctx = FieldContext(p, delta)
        base = grassmann_nef_cone(h, r, FieldContext(p, 0))
        pulled = grassmann_nef_cone(h.frobenius_pullback(ctx), r, ctx)
        assert (base.fiber_ray, base.theta_ray) == (pulled.fiber_ray, pulled.theta_ray)

    @given(hn_types_with_r(), st.sampled_from([2, 3]), st.integers(1, 2))
    def test_flag_rays_are_stable_under_stabilized_pullback(self, h_r, p, delta):
        h, r = h_r
        fl = FlagType(tuple(sorted({1, r})))
        ctx = FieldContext(p, delta)
        base = flag_nef_cone(h, fl, FieldContext(p, 0))
        pulled = flag_nef_cone(h.frobenius_pullback(ctx), fl, ctx)
        assert base.rays == pulled.rays
