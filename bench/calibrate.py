"""Calibration of timings against a fixed reference probe.

On a shared host the same work can take twice as long from one second to
the next (on a 2-vCPU Xeon VM, a pure-Python Fraction loop switched
between ~100 ms and ~52 ms per iteration in phases of seconds, in CPU time
as well as wall time).  Run-to-run spreads of raw timings were then 20-40%,
more than any useful regression bound.

The benchmark therefore runs a fixed probe every EVERY_S seconds of the
loop, outside the item clock, and scales each timing by the probe's
nominal time over its time around it.  Calibrated timings read as seconds
on a machine where the probe takes its nominal time; the raw timings are
printed next to them.  In-process workloads use ARITHMETIC, stdlib-only
Fraction and big-integer work (the mix diffmod spends its time in): over
five runs of one seed, raw items_per_s spread from 12.5 to 18.3 while the
calibrated figure stayed within 1%.  The CLI workload uses INTERPRETER, a
bare `python -c pass`, because interpreter start-up is most of a
command's time and tracks the host's state differently from arithmetic:
it cut the same-seed spread of that workload's items_per_s from ~9% to ~4%.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

EVERY_S = 0.5


def _arithmetic():
    s = Fraction(0)
    for i in range(1, 2500):
        s += Fraction(1, i % 97 + 1)
    x = 3
    for i in range(300):
        x = (x * x + i) % (1 << 512)
    return s, x


def _interpreter():
    # with pipes, run() waits on them instead of polling the child with
    # sleeps of up to 50 ms, which would quantise the probe
    subprocess.run([sys.executable, "-c", "pass"], check=True, capture_output=True,
                   timeout=60)


# (probe, nominal seconds)
ARITHMETIC = (_arithmetic, 0.010)
INTERPRETER = (_interpreter, 0.070)


class Calibration:
    def __init__(self, probe=ARITHMETIC):
        self.work, self.nominal = probe
        self.at = []      # probe start times
        self.took = []    # probe durations

    def probe(self):
        # the collector off: a collection in the probe would scan the heap
        # diffmod built, and the factor would divide a slowdown that comes
        # from a larger heap back out of the calibrated timings
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            self.work()
            took = perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.at.append(t0)
        self.took.append(took)

    def due(self, now):
        return not self.at or now - self.at[-1] >= EVERY_S

    def factor(self, t):
        """Nominal time over the mean of the probes just before and after t."""
        k = bisect.bisect_right(self.at, t)
        before = self.took[max(k - 1, 0)]
        after = self.took[min(k, len(self.took) - 1)]
        return 2 * self.nominal / (before + after)

    def window_factor(self, t0, t1):
        """Nominal time over the median probe taken between t0 and t1."""
        took = [d for a, d in zip(self.at, self.took) if t0 <= a <= t1] or self.took
        return self.nominal / statistics.median(took)

    def timed(self, fn):
        """Calibrated duration of fn(), probed before and after."""
        self.probe()
        t0 = perf_counter()
        fn()
        dt = perf_counter() - t0
        self.probe()
        return dt * 2 * self.nominal / (self.took[-1] + self.took[-2])
