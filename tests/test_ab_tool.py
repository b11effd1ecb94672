"""tools/ab.py runs a checkout against itself on smoke inputs."""

import re
import shutil
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


def count(*args):
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), *map(str, args),
                           "--smoke", "--rounds", "2"], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout.splitlines()


def totals(line):
    """``(opcodes, calls, Fraction.__new__)`` parts of one side's count line."""
    match = re.fullmatch(r"(\S+): (\d+) opcodes \(flagnef (\d+), fractions (\d+), other (\d+)\), "
                         r"(\d+) calls \(flagnef (\d+), fractions (\d+), other (\d+)\), "
                         r"(\d+) Fraction.__new__ per pass", line)
    values = list(map(int, match.groups()[1:]))
    assert values[0] == sum(values[1:4]) and values[4] == sum(values[5:8])
    return match[1], values


@pytest.mark.parametrize("workload", ["cli_mix", "sweep", "verify"])
def test_counts_repeat_exactly(workload):
    runs = [count(ROOT, ROOT, "--workload", workload, "--count", 5) for _ in range(2)]
    assert runs[0] == runs[1]
    lines = runs[0]
    assert [line.split(":")[0] for line in lines] == ["round 1", "round 2", "A", "B", "A'", "B/A",
                                                       "A'/A", "outputs differing"]
    sides = [totals(line) for line in lines[2:5]]
    assert [side for side, _ in sides] == ["A", "B", "A'"]
    assert sides[0][1] == sides[1][1] == sides[2][1] and sides[0][1][0] > 0
    assert lines[-1] == "outputs differing: 0"


def test_one_more_call_per_op_counts_once_per_op(tmp_path):
    """A change whose make_hn_type, called once per sweep op, makes one more
    Python call adds exactly one flagnef call per counted op."""
    shutil.copytree(ROOT / "src" / "flagnef", tmp_path / "src" / "flagnef")
    hn = tmp_path / "src" / "flagnef" / "hn.py"
    text = hn.read_text()
    old = "    return HNType([HNPiece(rank, degree) for rank, degree in pieces])\n"
    assert text.count(old) == 1
    hn.write_text(text.replace(old, "    (lambda: None)()\n" + old))
    lines = count(ROOT, tmp_path, "--workload", "sweep", "--count", 3)
    (_, a), (_, b) = totals(lines[2]), totals(lines[3])
    ops = 2 * 3  # counted ops over two rounds
    assert b[5] - a[5] == ops and b[4] - a[4] == ops and b[6:] == a[6:]
    assert b[1] > a[1] and b[2:4] == a[2:4]


def test_counting_refuses_the_collector_switch():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(ROOT),
                           "--workload", "sweep", "--smoke", "--count", "5", "--gc"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "--count counts with the collector off; it cannot take --gc" in proc.stderr
