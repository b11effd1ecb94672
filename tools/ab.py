"""Interleaved in-process A/B of two flagnef checkouts on one benchmark workload.

    python3 tools/ab.py PARENT CHANGE --workload cli_mix --seed 21 --rounds 5
    python3 tools/ab.py PARENT CHANGE --workload sweep --seed 7 --rounds 6 --gc

Imports flagnef from PARENT/src twice (A, and A' as the A/A control) and from
CHANGE/src once (B), as separate module sets swapped into ``sys.modules``.
Each round draws a fresh op pool from bench/workloads.py, as bench/run.py
does, and runs it on the three sides in rotating order, with the garbage
collector off inside each pass.  Prints the B/A and A'/A ratios of summed op
time per round, their medians and quartiles, and the ratios of the p50 of
per-op medians: a B/A median outside the A'/A quartiles stands out from the
run-to-run spread.
Every op's output must have the same repr on all sides; exit status 1 if not.

The default, the collector off, suits per-call changes: it takes the
collector's pauses out of the spread.  ``--gc`` keeps the collector on, as
bench/run.py does, for changes to what ops allocate; it adds one line per
side with the collector's time inside the ops, read from ``gc.callbacks``,
and its share of op time.

``--count N`` counts instead of timing, with the collector off:

    python3 tools/ab.py PARENT CHANGE --workload verify --seed 7 --rounds 1 --count 1500

Each round runs every side over the whole pool with ``Fraction.__new__``
wrapped in a counter, then over the pool's first N ops again (from a fresh
``begin_pass``) under ``sys.settrace`` with ``f_trace_opcodes``, counting
the opcodes and Python calls (a generator's resumption is one) of flagnef,
of ``fractions`` and of all other code.  It prints each side's totals, the
B/A and A'/A ratios, ``Fraction.__new__`` calls per pass, and the gc-tracked
objects that the whole passes leave alive once their outputs are dropped
(what the side's module-level stores keep; an entry that a pass adds to a
cache of the whole process, such as an ABC's subclass cache, counts on the
side that runs first, so A may read a few more than A').  A side's
counts repeat exactly from run to run, so a change of 1% shows.  They are
not times: work done in C is not counted (big-int arithmetic,
``math.comb``/``gcd``, json's C scanner, ``str(int)``, the collector), and
an opcode's cost varies, so counts back timed pairs and never replace them.
``--count`` refuses ``--gc``.
"""

import argparse
import gc
import importlib
import os
import random
import statistics
import sys
from fractions import Fraction
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
sys.dont_write_bytecode = True  # bench/ and the checkouts are only read
import workloads  # noqa: E402


def load(root, modules):
    """A fresh import of ``modules`` from ``root``/src, taken out of sys.modules."""
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    try:
        for name in modules:
            importlib.import_module(name)
    finally:
        sys.path.remove(src)
    mods = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "flagnef"}
    for name in mods:
        del sys.modules[name]
    if not mods["flagnef"].__file__.startswith(src + os.sep):
        raise RuntimeError(f"imported flagnef from {mods['flagnef'].__file__}, not from {src}")
    return mods


class GcClock:
    """A ``gc.callbacks`` entry that sums the time of every collection."""

    def __init__(self):
        self.total = self.start = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self.start = perf_counter()
        else:
            self.total += perf_counter() - self.start


def run_pass(wl, mods, pool, keep_gc=False):
    """Op times, output digests and the collector's time inside the ops of
    one whole pass on one side; the collector is off unless ``keep_gc``."""
    sys.modules.update(mods)
    fl = mods["flagnef"]
    gc.collect()
    clock = GcClock()
    gc.callbacks.append(clock)
    if not keep_gc:
        gc.disable()
    try:
        state, times, digests, in_ops = wl.begin_pass(fl), [], [], 0.0
        for x in pool:
            before = clock.total
            start = perf_counter()
            out = wl.op(fl, x, state)
            times.append(perf_counter() - start)
            in_ops += clock.total - before
            digests.append(hash(repr(out)))
    finally:
        gc.enable()
        gc.callbacks.remove(clock)
    return times, digests, in_ops


PARTS = ("flagnef", "fractions", "other")


def settled_count():
    """The number of gc-tracked objects after collections repeated until it
    stops changing: one collection untracks a tuple or dict only once what
    it holds is untracked, so nested ones take several."""
    count = None
    while True:
        gc.collect()
        if count == (count := len(gc.get_objects())):
            return count


def count_pass(wl, mods, pool, ops):
    """``(digests, fraction_news, left, opcodes, calls)`` of one side on one
    pool: the output digests, ``Fraction.__new__`` calls and gc-tracked
    objects left alive, once its outputs are dropped, of the whole pass, and
    the opcodes and calls of each of PARTS over its first ``ops`` ops."""
    sys.modules.update(mods)
    fl = mods["flagnef"]
    src = os.path.dirname(os.path.dirname(fl.__file__)) + os.sep
    fractions_file = sys.modules["fractions"].__file__
    news, new = [0], vars(Fraction)["__new__"]

    def counting(cls, *args, **kwargs):
        news[0] += 1
        return new.__func__(cls, *args, **kwargs)

    opcodes, calls, part_of = [0] * len(PARTS), [0] * len(PARTS), {}

    def tracer_of(k):
        def local(frame, event, arg):
            if event == "opcode":
                opcodes[k] += 1
            return local
        return local

    tracers = [tracer_of(k) for k in range(len(PARTS))]

    def on_call(frame, event, arg):
        code = frame.f_code
        k = part_of.get(code)
        if k is None:
            name = code.co_filename
            part_of[code] = k = 0 if name.startswith(src) else 1 if name == fractions_file else 2
        calls[k] += 1
        frame.f_trace_opcodes = True
        return tracers[k]

    gc.disable()
    try:
        digests, tracked = [], settled_count()
        Fraction.__new__ = staticmethod(counting)
        try:
            state = wl.begin_pass(fl)
            digests.extend(hash(repr(wl.op(fl, x, state))) for x in pool)
            del state
        finally:
            Fraction.__new__ = new
        left = settled_count() - tracked
        state = wl.begin_pass(fl)
        for x in pool[:ops]:
            sys.settrace(on_call)
            try:
                wl.op(fl, x, state)
            finally:
                sys.settrace(None)
    finally:
        gc.enable()
    return digests, news[0], left, opcodes, calls


def ratio(b, a):
    return f"{b / a:.4f}" if a else "-"


def report_counts(args, names, pool_of, wl, mods):
    """The ``--count`` run: each side's counts summed over the rounds."""
    totals = {side: [0, 0, [0] * len(PARTS), [0] * len(PARTS)] for side in names}
    differ = 0
    for k in range(args.rounds):
        pool, digests = pool_of(k), []
        for side in names[k % 3:] + names[:k % 3]:
            outs, news, left, opcodes, calls = count_pass(wl, mods[side], pool, args.count)
            digests.append(outs)
            total = totals[side]
            total[0] += news
            total[1] += left
            total[2] = [x + y for x, y in zip(total[2], opcodes)]
            total[3] = [x + y for x, y in zip(total[3], calls)]
        differ += sum(len(set(ops)) > 1 for ops in zip(*digests))
        print(f"round {k + 1}: {len(pool)} ops, {min(args.count, len(pool))} counted")

    def parts(show):
        return ", ".join(f"{part} {show(i)}" for i, part in enumerate(PARTS))

    for side in names:
        news, left, opcodes, calls = totals[side]
        print(f"{side}: {sum(opcodes)} opcodes ({parts(opcodes.__getitem__)}), "
              f"{sum(calls)} calls ({parts(calls.__getitem__)}), "
              f"{news / args.rounds:.0f} Fraction.__new__ per pass, "
              f"{left} tracked objects left by {args.rounds} passes")
    base = totals["A"]
    for side in ("B", "A'"):
        news, left, opcodes, calls = totals[side]
        print(f"{side}/A: opcodes {ratio(sum(opcodes), sum(base[2]))} "
              f"({parts(lambda i: ratio(opcodes[i], base[2][i]))}), "
              f"calls {ratio(sum(calls), sum(base[3]))} "
              f"({parts(lambda i: ratio(calls[i], base[3][i]))}), "
              f"Fraction.__new__ {ratio(news, base[0])}, "
              f"tracked objects left {ratio(left, base[1])}")
    print(f"outputs differing: {differ}")
    return 1 if differ else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    parser.add_argument("--gc", action="store_true",
                        help="keep the collector on and print its time on each side")
    parser.add_argument("--count", type=int, metavar="N",
                        help="count opcodes and calls over each pool's first N ops instead of timing")
    args = parser.parse_args(argv)
    if args.count is not None and args.gc:
        parser.error("--count counts with the collector off; it cannot take --gc")
    wl = workloads.make(args.workload, args.smoke)
    names = ["A", "B", "A'"]
    mods = {side: load(root, wl.modules)
            for side, root in zip(names, (args.parent, args.change, args.parent))}

    def pool_of(tag):
        shape = random.Random(f"{args.workload}:{args.seed}")
        return wl.inputs(shape, random.Random(f"{args.workload}:{args.seed}:{tag}"), args.smoke)

    first = wl.warm_up_input(pool_of("warm-up"))
    for side in names:
        if args.count is None:
            sys.modules.update(mods[side])
            wl.warm_up(mods[side]["flagnef"], first)
        else:  # on the counting path, whose one-off set-up in the process would skew one side
            count_pass(wl, mods[side], [first], 0)
    if args.count is not None:
        return report_counts(args, names, pool_of, wl, mods)
    by_op = {side: {} for side in names}
    ratios = {"B": [], "A'": []}
    gc_s, op_s = dict.fromkeys(names, 0.0), dict.fromkeys(names, 0.0)
    differ = 0
    for k in range(args.rounds):
        pool, total, digests = pool_of(k), {}, []
        for side in names[k % 3:] + names[:k % 3]:
            times, outs, in_gc = run_pass(wl, mods[side], pool, args.gc)
            total[side] = sum(times)
            gc_s[side] += in_gc
            op_s[side] += total[side]
            digests.append(outs)
            for i, t in enumerate(times):
                by_op[side].setdefault(i, []).append(t)
        differ += sum(len(set(ops)) > 1 for ops in zip(*digests))
        for side in ratios:
            ratios[side].append(total[side] / total["A"])
        line = ", ".join(f"{side}/A {ratios[side][-1]:.4f}" for side in ratios)
        print(f"round {k + 1}: {len(pool)} ops, A {total['A']:.4f} s, {line}")
    p50 = {side: statistics.median(map(statistics.median, by_op[side].values())) for side in names}
    print(f"A: p50 of per-op medians {p50['A'] * 1e6:.1f} us")
    for side, r in ratios.items():
        q1, _, q3 = statistics.quantiles(r, n=4, method="inclusive") if len(r) > 1 else r * 3
        print(f"{side}/A: total median {statistics.median(r):.4f}, quartiles {q1:.4f}-{q3:.4f}, "
              f"p50 of per-op medians {p50[side] / p50['A']:.4f} ({p50[side] * 1e6:.1f} us)")
    if args.gc:
        for side in names:
            print(f"{side} collector: {gc_s[side]:.4f} s of {op_s[side]:.4f} s op time "
                  f"({gc_s[side] / op_s[side]:.1%})")
    print(f"outputs differing: {differ}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
