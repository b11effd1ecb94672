"""Record a baseline: two sets of untraced runs of every workload, plus one traced run each.

    python3 bench/baseline.py --label "commit abc1234" --out bench/baseline_seed.json

The workloads and run length come from BENCHMARK.json.  Each set runs
seeds 1-10, seed by seed, cycling through the workloads, one run at a time;
the second set starts when the first has ended.  For each end-to-end metric
and set the file keeps every value, the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, and it
compares the two sets' medians with the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)
SETS = 2


def machine():
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
    }


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.time() - start
    return result


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    sets = []
    for _ in range(SETS):
        untraced = {w: [] for w in names}
        for seed in SEEDS:
            for w in names:
                untraced[w].append(run(w, seed, seconds, 0))
                print(f"set {len(sets) + 1} {w} seed {seed}: {untraced[w][-1]['metrics']}", file=sys.stderr)
        sets.append({w: {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "wall_s": [round(r["wall_s"], 2) for r in runs],
            "metrics": {m: summary([r["metrics"][m]["value"] for r in runs]) for m in runs[0]["metrics"]},
        } for w, runs in untraced.items()})
    report = {
        "label": args.label,
        "machine": machine(),
        "seconds": seconds,
        "seeds": list(SEEDS),
        "not_measured": [
            "CPU frequency, steal and contention from other tenants of the host: they cannot be pinned or read from inside the VM, "
            "and its speed drifts by up to about 25% over tens of seconds",
            "hardware counters (cycles, instructions, cache misses): no perf access",
            "cold file cache: dropping caches would change the machine",
        ],
        "untraced_sets": sets,
        "set_agreement": {},
        "traced": {},
    }
    for w in names:
        report["set_agreement"][w] = {}
        for m in bench["end_to_end"]:
            first, second = (s[w]["metrics"][m["name"]]["median"] for s in sets[:2])
            worse = (second - first) / first * (1 if m["better"] == "lower" else -1)
            report["set_agreement"][w][m["name"]] = {
                "spreads": [s[w]["metrics"][m["name"]]["spread"] for s in sets],
                "second_worse_by": worse, "bound": m["bound"], "within": worse <= m["bound"]}
        traced = run(w, SEEDS[0], seconds, 1)
        report["traced"][w] = {"seed": SEEDS[0], "attempted": traced["attempted"], "failed": traced["failed"],
                               "metrics": {m: v["value"] for m, v in traced["metrics"].items()}}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for w in names:
        for m, a in report["set_agreement"][w].items():
            medians = "  ".join(f"{s[w]['metrics'][m]['median']:.6g}" for s in sets)
            spreads = "  ".join(f"{x:.4f}" for x in a["spreads"])
            print(f"{w:8s} {m:18s} medians {medians}  spreads {spreads}  "
                  f"second worse by {a['second_worse_by']:+.4f} (bound {a['bound']})")


if __name__ == "__main__":
    main()
