"""Timing against a calibration loop, so that machine speed drift cancels.

On a shared host the same Python code runs up to about 1.6 times slower
for seconds to minutes at a time, and nothing inside the process sees
why: CPU time and wall time slow down together.  A fixed stdlib-only
loop slows down with it.  So every unit of work (one invocation, or one
chunk of axiom triples) is timed between two runs of that loop, and its
time is scaled by REFERENCE_CAL_S over their mean.  The result reads as
seconds on a machine where the loop takes REFERENCE_CAL_S; the loop does
not touch ordfield, so no change to ordfield moves the scale.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_CAL_S = 0.009


def calibrate() -> float:
    """Seconds taken by a fixed mix like ordfield's own: Fraction
    arithmetic, then formatting and joining record-like lines."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 900):
        acc += Fraction(i, i + 7) * Fraction(2 * i + 1, 3 * i + 2)
    lines = []
    for i in range(1, 2000):
        q = Fraction(i, 2 * i + 3)
        lines.append(f"check claim={i % 7} eps={q.numerator}/{q.denominator} w={i * 3}/{i + 1} verdict=pass")
    "\n".join(lines)
    return time.perf_counter() - t0


class Meter:
    """Scale factors for consecutive units of work.

    Each call to `factor` closes the unit just finished: it runs the
    calibration loop once more and returns REFERENCE_CAL_S over the mean
    of that run and the one before the unit.
    """

    def __init__(self):
        self.samples = [calibrate()]

    def factor(self) -> float:
        self.samples.append(calibrate())
        return 2 * REFERENCE_CAL_S / (self.samples[-2] + self.samples[-1])

    def median_cal_s(self) -> float:
        return statistics.median(self.samples)
