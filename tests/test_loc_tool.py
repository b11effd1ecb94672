"""tools/loc.py counts every line and the lines of code of flagnef's modules."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "flagnef"
_spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SAMPLE = '''\
"""A module docstring
over two lines."""

import os  # a comment after code leaves the line code


class A:
    """A class docstring."""

    # a comment alone
    x = """a string over
two lines, not a docstring"""

    def f(self):
        """A function
        docstring."""
        return os.sep
'''


def test_a_small_file():
    # code: the import, the class line, both lines of x, the def line and the return
    assert loc.counts(SAMPLE) == (17, 6)


def test_every_module_and_the_total():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "loc.py")],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = [line.split() for line in proc.stdout.splitlines()]
    paths = sorted(SRC.glob("*.py"))
    assert [row[0] for row in rows] == [p.name for p in paths] + ["total"]
    for row, path in zip(rows, paths):
        assert [int(n) for n in row[1:]] == list(loc.counts(path.read_text(encoding="utf-8")))
    assert [int(n) for n in rows[-1][1:]] == [sum(int(row[i]) for row in rows[:-1]) for i in (1, 2)]
