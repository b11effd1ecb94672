"""tools/ab.py runs a checkout against itself on smoke inputs."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["cli_mix", "sweep", "verify"])
def test_a_checkout_against_itself(workload):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(ROOT),
                           "--workload", workload, "--smoke", "--rounds", "2"],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["round 1", "round 2", "A", "B/A", "A'/A",
                                                       "outputs differing"]
    assert lines[-1] == "outputs differing: 0"
    for line, side in zip(lines[3:5], ("B", "A'")):
        per_round = [float(re.search(rf" {side}/A ([\d.]+)", r)[1]) for r in lines[:2]]
        match = re.fullmatch(rf"{side}/A: total median ([\d.]+), quartiles ([\d.]+)-([\d.]+), "
                             r"p50 of per-op medians \S+ \(\S+ us\)", line)
        low, high = sorted(per_round)
        median, q1, q3 = map(float, match.groups())
        # two rounds: each quartile lies a quarter of the way in from its end (printed to 4 places)
        assert abs(q1 - (low + (high - low) / 4)) < 2e-4
        assert abs(q3 - (high - (high - low) / 4)) < 2e-4
        assert q1 <= median <= q3


def test_the_collector_switch_adds_its_time_per_side():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(ROOT),
                           "--workload", "sweep", "--smoke", "--rounds", "2", "--gc"],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "round 1", "round 2", "A", "B/A", "A'/A", "A collector", "B collector", "A' collector",
        "outputs differing"]
    assert lines[-1] == "outputs differing: 0"


def test_one_round_has_its_own_ratio_as_both_quartiles():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(ROOT),
                           "--workload", "sweep", "--smoke", "--rounds", "1"],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    for line, side in zip(lines[2:4], ("B", "A'")):
        ratio = re.search(rf" {side}/A ([\d.]+)", lines[0])[1]
        assert line.startswith(f"{side}/A: total median {ratio}, quartiles {ratio}-{ratio}, ")
