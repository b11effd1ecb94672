"""The machine's speed, measured next to the ops, to take its drift out of the times.

Virtual machines like the baseline's change speed by up to about 25% in
phases of seconds to minutes, for reasons outside the program (the host's
other tenants).  A fixed piece of pure-Python work, of the same kind as
flagnef's (Fraction arithmetic, tuple enumeration, JSON, string formatting)
and using no flagnef code, is timed every CALIBRATE_EVERY_S of op time.
An op's time is then scaled by REFERENCE_S over the median of the last
WINDOW calibration times: it reads as the time the op would take on a
machine that does the fixed work in REFERENCE_S.  A change to flagnef does
not touch the fixed work, so it moves the scaled times as it moves the raw.
"""

from __future__ import annotations

import json
import statistics
from collections import deque
from time import perf_counter

import reference as ref

# Median time of one work() call on the baseline machine (see README.md).
REFERENCE_S = 0.010
CALIBRATE_EVERY_S = 0.2
WINDOW = 9

_PIECES = [(3, 40), (5, 31), (2, 9), (7, 2), (4, -11), (6, -30)]
_CAPS = [k for k, _ in _PIECES]


def work():
    """The fixed work; returns a value so that nothing is optimised away."""
    total = 0
    for _ in range(4):
        rows = ref.theta_rows(_PIECES)
        comps = ref.compositions(_CAPS, 7)
        report = {"command": "theta", "input": {"bundle": {"pieces": [list(p) for p in _PIECES]}},
                  "result": {"rows": [[str(v) for v in row] for row in rows], "count": len(comps)}}
        text = json.dumps(report, sort_keys=True)
        total += len(json.loads(text)["result"]["rows"]) + len(f"{text!r:>40}".split(","))
    return total


def sample():
    start = perf_counter()
    work()
    return perf_counter() - start


class Speed:
    """Scale factor of op times: REFERENCE_S over the recent calibration median."""

    def __init__(self):
        self.recent = deque(maxlen=WINDOW)
        self.factors = []
        self.since = 0.0
        for _ in range(WINDOW):
            self.calibrate()

    def calibrate(self):
        self.recent.append(sample())
        self.factors.append(REFERENCE_S / statistics.median(self.recent))
        self.since = 0.0

    def scale(self, seconds):
        """Scale one op's time, calibrating first once enough op time has passed."""
        if self.since >= CALIBRATE_EVERY_S:
            self.calibrate()
        self.since += seconds
        return seconds * self.factors[-1]
