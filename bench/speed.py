"""Machine-speed calibration for the end-to-end times.

The benchmark runs on a shared host whose speed drifts by 20-40% over
minutes: ten 20 s `oracle` runs of the same code, made one after
another, gave `wall_s` from 2.0 s to 2.9 s.  No statistic of one run's
own op times removes that.  So a run also times four fixed pure-Python
loops, interleaved with its ops, and scales its end-to-end times to the
speed at which these loops take REFERENCE_S.  The loops do not touch
dualpcf, so a change to the interpreter moves the scaled times just as
it moves the raw ones; only the host's speed cancels.

The loops cover the interpreter's kinds of work: small-int arithmetic,
`Fraction` arithmetic (gcd on every operation), allocating tuples,
lists and dict entries, and deep Python calls.  No single loop tracked
the drift on every workload; the geometric mean of the four did.  They
run with the garbage collector off, so that a heap grown by the
interpreter (a memo table, say) does not slow them.
"""
from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.2  # op time between two calibration samples


def _int_loop():
    x = 0
    for i in range(20000):
        x = (x * 31 + i) % 1000003
    return x


def _fraction_loop():
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(i, 3 * i + 1) * Fraction(2 * i + 1, 7)
        if i % 50 == 0:
            s = s.limit_denominator(1 << 40)
    return s


def _alloc_loop():
    n = 0
    for _ in range(10):  # small tables, so that peak memory does not grow
        d = {}
        for i in range(300):
            t = (i, (i, str(i)), [i] * 3)
            d[t[1]] = t
        n += len(d)
    return n


def _call_loop():
    def nest(t, n):
        return t if n == 0 else nest((t, n), n - 1)
    r = None
    for _ in range(200):
        r = nest(None, 60)
    return r


LOOPS = {"int": _int_loop, "fraction": _fraction_loop,
         "alloc": _alloc_loop, "call": _call_loop}
# Median seconds per loop on the host where the benchmark was written
# (2 shared x86-64 cores at 2.1 GHz, CPython 3.11), rounded.  They are
# fixed, so that scaled times of two runs or two commits compare.
REFERENCE_S = {"int": 0.0018, "fraction": 0.0022, "alloc": 0.0014,
               "call": 0.0013}


class Speed:
    """Calibration samples of one run."""

    def __init__(self):
        self.times = {name: [] for name in LOOPS}
        self.last = time.perf_counter()

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            for name, loop in LOOPS.items():
                t0 = time.perf_counter()
                loop()
                self.times[name].append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self.last = time.perf_counter()

    def maybe_sample(self):
        """Sample when INTERVAL_S has passed since the last sample."""
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    @property
    def samples(self):
        return len(self.times["int"])

    def factor(self):
        """Reference over measured speed: a time times this factor is the
        time at the reference speed."""
        return statistics.geometric_mean(
            REFERENCE_S[name] / statistics.median(ts)
            for name, ts in self.times.items())
