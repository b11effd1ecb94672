"""tools/ab.py runs a checkout against itself on smoke inputs."""

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
