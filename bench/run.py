"""flagnef benchmark: one seeded workload, checked op by op, in one process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload cli_mix --seed 1 --seconds 15 --trace 0

Workloads are cli_mix, sweep and verify (see BENCHMARK.json and
bench/README.md).  Each is a closed loop with one client.  A run measures
set-up in fresh interpreters, imports flagnef from ./src, then runs whole
passes until --seconds have passed.  Each pass draws a fresh op pool and its
reference answers from --seed and the pass number, without flagnef and
outside the timed intervals; slot i of every pool has the same kind and
size.  Every op is checked against the reference outside its timed interval.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes over pools of the same shape and reports per-layer calls and self
times per pass, the tracing overhead, and the start-up layer.  --smoke uses
tiny inputs.  The last line of stdout is one JSON object; the lines before
it list each metric with its unit.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import reference as ref
import speed as sp
import tracer as tr
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 15
STARTUP_SAMPLES = 5


class Tally:
    """Latencies of each op of the pool, and pass/fail counts."""

    def __init__(self):
        self.by_op = {}
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def add(self, op, seconds, ok, why=None):
        self.by_op.setdefault(op, []).append(seconds)
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = why

    def op_latencies(self):
        """Each op's median over its runs, so that a stall of the machine
        during one run of an op is not read as that op's cost."""
        return [statistics.median(v) for v in self.by_op.values()]


def make_pool(wl, args, tag):
    """The op pool of one pass and its reference answers.  The shape stream
    is seeded the same for every pass, the value stream per ``tag``."""
    shape = random.Random(f"{args.workload}:{args.seed}")
    values = random.Random(f"{args.workload}:{args.seed}:{tag}")
    pool = wl.inputs(shape, values, args.smoke)
    return pool, [wl.reference(x) for x in pool]


def run_pass(wl, fl, pool, refs, tally, tracer=None, deadline=None, speed=None):
    """One pass over the op pool, cut short at ``deadline`` if the workload's
    pool is in random order; returns the summed op time in seconds.  With
    ``speed``, op times are scaled to the reference machine speed."""
    state = wl.begin_pass(fl)
    busy = 0.0
    for i, (x, expected) in enumerate(zip(pool, refs)):
        if deadline is not None and wl.shuffled and perf_counter() >= deadline:
            break
        start = perf_counter()
        try:
            out = wl.op(fl, x, state) if tracer is None else tracer.root(wl.op, fl, x, state)
        except Exception:
            elapsed = perf_counter() - start
            elapsed = speed.scale(elapsed) if speed else elapsed
            tally.add(i, elapsed, False, traceback.format_exc(limit=3))
        else:
            elapsed = perf_counter() - start
            elapsed = speed.scale(elapsed) if speed else elapsed
            try:
                ok = wl.check(x, expected, out)
            except Exception:
                ok = False
            tally.add(i, elapsed, ok, None if ok else f"wrong output for {json.dumps(x)[:300]}")
        busy += elapsed
    return busy


def tail_latency(values):
    """(value, percentile used): the nearest-rank p99, or the highest
    percentile with at least ten samples beyond it when there are fewer
    than 1000 samples."""
    values = sorted(values)
    n = len(values)
    q = max(0.5, min(0.99, 1 - 10 / n))
    return values[max(1, math.ceil(round(q * n, 6))) - 1], q


def timed_child(cmd, env):
    start = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:3]} failed: {proc.stderr.strip()[-500:]}")
    return elapsed, proc.stdout


def setup_sample(wl, first_op, env, speed):
    """Seconds a fresh interpreter takes to import flagnef and finish one
    warm-up op, scaled to the reference machine speed."""
    cmd = [sys.executable, os.path.join(ROOT, "bench", "child.py"), wl.name, ",".join(wl.modules),
           json.dumps(first_op)]
    speed.calibrate()
    return float(timed_child(cmd, env)[1]) * speed.factors[-1]


def measure_startup(samples, env):
    """Median wall time of a bare interpreter, and of ``import flagnef.cli``
    on top of it, over alternating fresh processes."""
    bare, cli = [], []
    for _ in range(samples):
        bare.append(timed_child([sys.executable, "-c", "pass"], env)[0])
        cli.append(timed_child([sys.executable, "-c", "import flagnef.cli"], env)[0])
    interpreter = statistics.median(bare)
    return interpreter, statistics.median(cli) - interpreter


def run_probes():
    """Known-defect inputs, each once; returns the names that failed."""
    failed = []
    run_command = sys.modules["flagnef.cli"].run_command
    for name, argv, ok_request in workloads.defect_probes():
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            _, code = run_command(argv, out, err)
        except Exception:
            failed.append(name)
            continue
        elapsed = perf_counter() - start
        if ok_request is not None and code == 0:
            ok = ref.cli_output_ok(ok_request, code, out.getvalue(), err.getvalue())
        else:
            ok = code == 1 and out.getvalue() == "" and err.getvalue().startswith("flagnef: error[")
        if not ok or elapsed > workloads.PROBE_LIMIT_S:
            failed.append(name)
    return failed


def import_flagnef(wl):
    sys.path.insert(0, SRC)
    for name in wl.modules:
        importlib.import_module(name)
    fl = sys.modules["flagnef"]
    if not os.path.abspath(fl.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported flagnef from {fl.__file__}, not from {SRC}")
    return fl


def measure(args):
    smoke = args.smoke
    wl = workloads.make(args.workload, smoke)
    env = dict(os.environ, PYTHONPATH=SRC)

    first = wl.warm_up_input(make_pool(wl, args, "warm-up")[0])
    pool, refs = make_pool(wl, args, 0)
    fl = import_flagnef(wl)
    wl.warm_up(fl, first)

    tally = Tally()
    lines = []
    passes = 0
    deadline = perf_counter() + args.seconds
    if not args.trace:
        speed = sp.Speed()
        busy = 0.0
        setup = []
        while True:
            # set-up samples are spread over the run, so that their median
            # sees the same machine as the passes do
            setup += [setup_sample(wl, first, env, speed) for _ in range(0 if smoke else 3)]
            if passes:
                del pool, refs  # so that two pools never coexist in peak_rss_mb
                pool, refs = make_pool(wl, args, passes)
            # the first pass is always whole
            busy += run_pass(wl, fl, pool, refs, tally, deadline=deadline if passes else None, speed=speed)
            passes += 1
            if perf_counter() >= deadline:
                break
        while len(setup) < (1 if smoke else SETUP_SAMPLES):
            setup.append(setup_sample(wl, first, env, speed))
        latencies = tally.op_latencies()
        tail, q = tail_latency(latencies)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "throughput_ops_s": (tally.attempted / busy, "1/s"),
            "latency_p50_us": (statistics.median(latencies) * 1e6, "us"),
            "latency_p99_us": (tail * 1e6, "us"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        lines.append(f"latency samples: {len(latencies)} op slots, each the median of its "
                     f"{tally.attempted / len(latencies):.3g} runs on average; latency_p99_us is "
                     f"the p{q * 100:.4g} (at least ten samples lie beyond it)")
        lines.append(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}")
        factors = speed.factors
        lines.append(f"times scaled to the reference speed by {len(factors)} calibrations: factor median "
                     f"{statistics.median(factors):.4f}, range {min(factors):.4f} to {max(factors):.4f}")
    else:
        tracer = tr.Tracer()
        plain = traced = 0.0
        while True:
            if passes:
                del pool, refs
                pool, refs = make_pool(wl, args, 2 * passes)
            plain += run_pass(wl, fl, pool, refs, tally)
            del pool, refs
            pool, refs = make_pool(wl, args, 2 * passes + 1)
            with tracer:
                traced += run_pass(wl, fl, pool, refs, tally, tracer)
            passes += 1
            if perf_counter() >= deadline:
                break
        interpreter, imports = measure_startup(1 if smoke else STARTUP_SAMPLES, env)
        metrics = {}
        for name in list(tr.LAYERS) + [tr.ROOT]:
            metrics[f"{name}.calls"] = (tracer.calls.get(name, 0) // passes, "count")
            metrics[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0) / passes, "s")
        metrics["trace.traced_s"] = (traced / passes, "s")
        metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
        metrics["startup.interpreter_s"] = (interpreter, "s")
        metrics["startup.import_s"] = (imports, "s")
        layer_sum = sum(tracer.self_s.values()) / passes
        lines.append(f"{passes} traced pass(es) of {len(pool)} ops; per-pass values. Self times "
                     f"of all spans sum to {layer_sum:.6f} s of {traced / passes:.6f} s traced")
        extra = sorted(set(tracer.calls) - set(tr.LAYERS) - {tr.ROOT})
        for name in extra:
            lines.append(f"  also traced: {name}: calls {tracer.calls[name] // passes}, "
                         f"self {tracer.self_s[name] / passes:.6f} s")
        out_dir = os.path.join(ROOT, "bench", ".out")
        os.makedirs(out_dir, exist_ok=True)
        span_file = os.path.join(out_dir, f"spans-{wl.name}-{args.seed}.jsonl")
        tracer.write(span_file)
        lines.append(f"spans: {len(tracer.spans)} written to {os.path.relpath(span_file, ROOT)}"
                     f" ({tracer.dropped} beyond the cap kept only in the sums)")

    probe_failures = run_probes() if wl.name == "cli_mix" else []
    if args.trace:
        metrics["defects.failed"] = (len(probe_failures), "count")
    if wl.name == "cli_mix":
        lines.append(f"known-defect probes failing: {len(probe_failures)} of "
                     f"{len(workloads.defect_probes())}: {', '.join(probe_failures) or 'none'}")
    lines.append(f"ops attempted {tally.attempted}, failed {tally.failed}, "
                 f"failed_ops_ratio {tally.failed / tally.attempted:.6g}")
    if tally.first_failure:
        lines.append(f"first failure: {tally.first_failure}")
    return tally, metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up sample")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "flagnef", "__init__.py")):
        print(f"bench: no flagnef sources under {SRC}", file=sys.stderr)
        return 2
    tally, metrics, lines = measure(args)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name}  {value:.6g} {unit}")
    for line in lines:
        print(f"{args.workload}  {line}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
