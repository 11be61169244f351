"""Reference unit that measures the host's speed during a run.

The end-to-end timings are scaled to a reference host speed.  On a
virtual machine shared with other tenants the CPU runs at one of two
speeds about 1.5 times apart, switching every few seconds, and whole
minutes can lean to either (see README.md); no statistic over raw task
times taken inside one run removes that.  So the timed loop also times
this fixed unit, a pure-Python loop and a numpy complex exponential,
between tasks, and each task time is multiplied by REF_MS / (the mean of
the unit's times measured just before and just after the task).  The unit
is benchmark code, so a change to the program cannot move it.  Workloads
whose tasks do not slow with the unit set `host_scaled = False`.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_MS = 10.0       # the unit's time at the reference speed
_X = np.linspace(0.0, 1.0, 100_000)


def reference_unit() -> float:
    s = 0
    for i in range(60_000):
        s += i * i
    return float(np.exp(1j * _X).real.sum()) + s


def sample(reps: int) -> list[float]:
    """Times of `reps` reference units, in ms."""
    out = []
    for _ in range(reps):
        t = time.perf_counter()
        reference_unit()
        out.append(1e3 * (time.perf_counter() - t))
    return out


def reference_ms(reps: int = 2) -> float:
    return statistics.median(sample(reps))


def scaled_times(times, probes) -> list[float]:
    """`times` at the reference speed.

    `probes` is a list of (number of tasks done, reference ms), in order,
    the first at 0 tasks and the last after every task.
    """
    out, j = [], 0
    for k, t in enumerate(times):
        while probes[j + 1][0] <= k:
            j += 1
        out.append(t * 2.0 * REF_MS / (probes[j][1] + probes[j + 1][1]))
    return out
