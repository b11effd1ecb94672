"""Smoke test of the benchmark harness, so that it cannot rot.

Runs every workload with tiny inputs, untraced and traced, and checks the
output schema against BENCHMARK.json and the failed-op accounting; it does
not judge any time.  From the repository root:

    python -m pytest -q bench/test_smoke.py
"""

import io
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import reference as ref
import run
import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[1:2] == [m["name"]] and line.endswith(" " + m["unit"]) for line in lines[:-1])
    if trace:
        assert result["metrics"]["bench.op.calls"]["value"] >= 1
        assert 0 <= result["metrics"]["defects.failed"]["value"] <= len(workloads.defect_probes())


def test_failed_ops_are_counted_against_attempted():
    class Flaky(workloads.Workload):
        def op(self, fl, x, state):
            if x == "raise":
                raise ValueError(x)
            return x

        def check(self, x, expected, out):
            return out == "good"

    tally = run.Tally()
    run.run_pass(Flaky(), None, ["good", "bad", "raise", "good"], [None] * 4, tally)
    assert (tally.attempted, tally.failed, len(tally.op_latencies())) == (4, 2, 4)


def test_reference_rejects_a_wrong_cli_answer():
    for req in workloads.cli_requests(random.Random(0), random.Random(1), 40, 0.1):
        if "error" in req:
            assert ref.cli_output_ok(req, 1, "", f"flagnef: error[{req['error']}]: x\n")
            assert not ref.cli_output_ok(req, 1, "", "flagnef: error[Other]: x\n")
            continue
        _, want = ref.cli_expected(req)
        out = json.dumps(want) + "\n" if req["json"] else want
        assert ref.cli_output_ok(req, 0, out, "")
        assert not ref.cli_output_ok(req, 0, out.replace("1", "2", 1) if "1" in out else out + "x", "")


def test_tracer_restores_every_binding():
    sys.path.insert(0, run.SRC)
    import flagnef.cli

    before = flagnef.cli.theta
    with tracer.Tracer() as t:
        assert flagnef.cli.theta is not before
        flagnef.cli.run_command(["classify", "--bundle", '{"pieces":[[1,1],[2,-1]]}', "--r", "2"],
                                io.StringIO(), io.StringIO())
    assert flagnef.cli.theta is before and flagnef.theta is before
    assert t.calls["theta.theta"] == 2 and t.calls["cli.run_command"] == 1


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = bench("--workload", "cli_mix", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("name", workloads.NAMES)
def test_passes_keep_each_slot_shape_with_fresh_values(name):
    wl = workloads.make(name, smoke=True)

    def pool(tag):
        return wl.inputs(random.Random("shape"), random.Random(tag), True)

    first, second = pool(0), pool(1)
    assert len(first) == len(second)
    size = {"cli_mix": lambda x: (x["cmd"], x["json"], x.get("error"), workloads._rank(x["bundle"])),
            "sweep": lambda x: [k for k, _ in x["pieces"]],
            "verify": lambda x: [k for k, _ in x.get("pieces") or x["corpus"]]}[name]
    assert [size(x) for x in first] == [size(x) for x in second]
    fresh = [x for x in first if "corpus" not in x]
    assert sum(x != y for x, y in zip(first, second)) >= len(fresh) // 2
