"""Acceptance suite: every exit criterion, exact tolerances, one printed
pass/fail line per criterion (run with ``pytest -s tests/test_acceptance.py``
to see them inline)."""

import io
import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from flagnef import (
    FieldContext,
    FlagType,
    NSClassGr,
    PositivityClass,
    anticanonical_is_nef,
    classify_tautological,
    enumerate_va,
    flag_nef_cone,
    grassmann_nef_cone,
    is_ample_gr,
    is_nef_flag,
    is_nef_gr,
    make_hn_type,
    pullback_to_flag,
    relative_anticanonical_class,
    theta,
    theta_oracle,
)
from flagnef.cli import run_command
from helpers import random_hn_type

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}")
        raise
    print(f"PASS  {name}  ({time.perf_counter() - started:.1f}s)")


def test_criterion_1_strongly_semistable_closed_form():
    with criterion("1 strongly-semistable closed form theta = r*d/n"):
        started = time.perf_counter()
        for n in range(2, 11):
            for d in range(-10, 11):
                h = make_hn_type([(n, d)])
                for r in range(1, n):
                    assert theta(h, r).theta == Fraction(r * d, n)
        assert time.perf_counter() - started < 1.0


def test_criterion_2_oracle_equivalence(corpus_pairs):
    with criterion("2 oracle equivalence (exhaustive rank<=6 + 1000 random rank<=12)"):
        started = time.perf_counter()
        for h, r in corpus_pairs:
            assert theta(h, r).theta == theta_oracle(h, r)
        rng = random.Random(20260810)
        for _ in range(1000):
            h = random_hn_type(rng, max_rank=12)
            for r in range(1, h.rank):
                assert theta(h, r).theta == theta_oracle(h, r)
        assert time.perf_counter() - started < 30.0


def test_criterion_3_trichotomy_consistency(corpus_pairs):
    with criterion("3 trichotomy agrees with cone membership of the tautological class"):
        o1 = NSClassGr(1, 0)
        for h, r in corpus_pairs:
            cls = classify_tautological(h, r)
            cone = grassmann_nef_cone(h, r)
            nef, ample = is_nef_gr(o1, cone), is_ample_gr(o1, cone)
            # exactly one variant holds, and it matches the membership tests
            assert (cls is PositivityClass.AMPLE) == (nef and ample)
            assert (cls is PositivityClass.NEF_NOT_AMPLE) == (nef and not ample)
            assert (cls is PositivityClass.NOT_NEF) == (not nef and not ample)


def test_criterion_4_transform_identities(corpus_pairs):
    with criterion("4 twist / cover / Frobenius / duality identities"):
        frob = [(p, delta) for p in (2, 3, 5) for delta in (0, 1, 2)]
        for h, r in corpus_pairs:
            base = theta(h, r).theta
            for m in (-3, -1, 0, 2):
                assert theta(h.twist(m), r).theta == base + r * m
            for m in (1, 2, 3):
                assert theta(h.cover_pullback(m), r).theta == m * base
            for p, delta in frob:
                ctx = FieldContext(p, delta)
                assert theta(h.frobenius_pullback(ctx), r).theta == p**delta * base
            assert theta(h.dual(), h.rank - r).theta == base - h.degree


def test_criterion_5_va_bookkeeping(corpus_pairs):
    with criterion("5 exterior-power block bookkeeping"):
        for h, r in corpus_pairs:
            blocks = enumerate_va(h, r)
            n = h.rank
            assert sum(b.rank for b in blocks) == math.comb(n, r)
            assert sum(b.degree for b in blocks) == math.comb(n - 1, r - 1) * h.degree
            for b in blocks:
                assert isinstance(b.degree, int)
                assert b.degree == b.rank * b.slope_sum
            assert min(b.slope_sum for b in blocks) == theta(h, r).theta


def test_criterion_6_semistability_criterion(corpus_pairs):
    with criterion("6 relative anticanonical nef iff semistable, never interior"):
        for h, r in corpus_pairs:
            assert anticanonical_is_nef(h, r) == (len(h) == 1)
            cone = grassmann_nef_cone(h, r)
            assert not is_ample_gr(relative_anticanonical_class(h, r), cone)


def test_criterion_7_flag_grassmann_compatibility(corpus):
    with criterion("7 flag generators pull back from Grassmann generators"):
        rng = random.Random(715)
        for h in corpus:
            n = h.rank
            if n < 2:
                continue
            dims = sorted(rng.sample(range(1, n), k=rng.randint(1, min(3, n - 1))))
            fl = FlagType(tuple(dims))
            flag_cone = flag_nef_cone(h, fl)
            gr_cones = [grassmann_nef_cone(h, r_i) for r_i in dims]
            for i, gr_cone in enumerate(gr_cones, start=1):
                generator = NSClassGr(gr_cone.theta_ray.u, gr_cone.theta_ray.v)
                pulled = pullback_to_flag(i, generator, fl)
                assert (*(int(v) for v in pulled.x), int(pulled.y)) == flag_cone.rays[i - 1]
            assert flag_cone.rays[-1] == (0,) * fl.nu + (1,)
            # a flag class supported on one factor reproduces the Grassmann verdict
            i = rng.randint(1, fl.nu)
            c = NSClassGr(
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
            )
            assert is_nef_flag(pullback_to_flag(i, c, fl), flag_cone) == is_nef_gr(
                c, gr_cones[i - 1]
            )


def test_criterion_8_char_p_cone_invariance(corpus_pairs):
    with criterion("8 primitive rays invariant under stabilized Frobenius pullback"):
        for h, r in corpus_pairs:
            for p in (2, 3, 5):
                base = grassmann_nef_cone(h, r, FieldContext(p, 0))
                for delta in (1, 2):
                    ctx = FieldContext(p, delta)
                    pulled = grassmann_nef_cone(h.frobenius_pullback(ctx), r, ctx)
                    assert base.fiber_ray == pulled.fiber_ray
                    assert base.theta_ray == pulled.theta_ray


def test_criterion_9_cli_determinism_and_corpus_check():
    with criterion("9 CLI golden files, JSON round trip, corpus oracle-check"):
        cases = [
            (
                ["theta", "--bundle", '{"pieces":[[1,1],[2,-1]]}', "--r", "2", "--json"],
                "theta_json.golden",
            ),
            (
                ["classify", "--bundle", '{"pieces":[[2,0]]}', "--r", "1"],
                "classify_text.golden",
            ),
            (
                [
                    "cone",
                    "flag",
                    "--bundle",
                    '{"pieces":[[1,2],[1,1],[1,0]]}',
                    "--flag",
                    "1,2",
                    "--json",
                ],
                "cone_flag_json.golden",
            ),
        ]
        for argv, golden in cases:
            out1, out2 = io.StringIO(), io.StringIO()
            report, code = run_command(argv, stdout=out1, stderr=io.StringIO())
            assert code == 0
            assert out1.getvalue() == (GOLDEN / golden).read_text()
            run_command(argv, stdout=out2, stderr=io.StringIO())
            assert out1.getvalue() == out2.getvalue()
            if argv[-1] == "--json":
                assert json.loads(out1.getvalue()) == report

        started = time.perf_counter()
        out = io.StringIO()
        report, code = run_command(["oracle-check"], stdout=out, stderr=io.StringIO())
        assert code == 0
        assert report["result"]["ok"] is True
        assert report["result"]["mismatches"] == 0
        assert time.perf_counter() - started < 60.0


if __name__ == "__main__":
    pytest.main([__file__, "-s", "-q"])
