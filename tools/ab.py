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
"""

import argparse
import gc
import importlib
import os
import random
import statistics
import sys
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
    args = parser.parse_args(argv)
    wl = workloads.make(args.workload, args.smoke)
    names = ["A", "B", "A'"]
    mods = {side: load(root, wl.modules)
            for side, root in zip(names, (args.parent, args.change, args.parent))}

    def pool_of(tag):
        shape = random.Random(f"{args.workload}:{args.seed}")
        return wl.inputs(shape, random.Random(f"{args.workload}:{args.seed}:{tag}"), args.smoke)

    first = wl.warm_up_input(pool_of("warm-up"))
    for side in names:
        sys.modules.update(mods[side])
        wl.warm_up(mods[side]["flagnef"], first)
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
