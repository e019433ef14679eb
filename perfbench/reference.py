"""A fixed reference kernel that gauges how fast the machine is running right now.

The benchmark shares its host, whose speed drifts by up to half over minutes
while process CPU time stays equal to wall time: the slowdown is in the
cores, not in scheduling.  So the run times this kernel between the program's
stages and reports each stage time at reference speed:

    stage seconds x REFERENCE_S / (seconds this kernel took around that stage)

The kernel is benchmark code, not program code, so a change to the program
moves the stage time and not the gauge.  It mixes the three kinds of work
the pipeline does: interpreted loops over Python floats (the CSV readers,
the period bookkeeping), many NumPy calls on short arrays (segment's
window fits, the regressions) and ufuncs over a 101 x 101 parameter grid
(the fit tuner).  Never change it or REFERENCE_S: either rescales every timing, and
medians from before and after the change would no longer compare.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Nominal seconds of one kernel() call: about its median on the 2-core
# machine the baseline was recorded on.
REFERENCE_S = 0.06
_REPEATS = 7


def _python_floats() -> float:
    """Interpreted loops over Python floats: sliding-window least-squares slopes."""
    ys = [math.log(1.0 + (k * 37) % 101 + k) for k in range(400)]
    best: dict[int, float] = {}
    for start in range(0, 300):
        n = 40
        sx = sy = sxx = sxy = 0.0
        for x in range(n):
            y = ys[start + x]
            sx += x
            sy += y
            sxx += x * x
            sxy += x * y
        best[start % 17] = max(best.get(start % 17, -1e9), (n * sxy - sx * sy) / (n * sxx - sx * sx))
    return sum(best.values())


def _small_arrays() -> float:
    """Many NumPy calls on short arrays, where dispatch cost dominates: windowed OLS fits."""
    x = np.arange(120, dtype=float)
    y = np.log1p(x * 3.0 + (x * 7.0) % 11.0)
    total = 0.0
    for lo in range(0, 90, 2):
        for length in (10, 20, 30):
            xs, ys = x[lo:lo + length], y[lo:lo + length]
            xm, ym = xs.mean(), ys.mean()
            slope = float(((xs - xm) * (ys - ym)).sum()) / float(((xs - xm) ** 2).sum())
            total += slope
    return total


def _grid_steps() -> float:
    """Vectorised Euler steps of a lagged SIR model over a 101 x 101 parameter grid."""
    beta = np.repeat(np.linspace(0.05, 0.6, 101), 101)
    gamma = np.tile(np.linspace(0.3, 0.02, 101), 101)
    s = np.full(beta.size, 0.999)
    i = np.full(beta.size, 0.001)
    history = [i]
    for t in range(15):
        lagged = history[max(0, t - 5)]
        new = beta * s * lagged
        s = np.clip(s - new, 0.0, 1.0)
        i = np.clip(i + new - gamma * i, 0.0, 1.0)
        history.append(i)
    logs = np.log(np.stack(history[5:]) + 1e-12)
    days = np.arange(logs.shape[0], dtype=float)
    dm = days - days.mean()
    slopes = (dm[:, None] * (logs - logs.mean(axis=0))).sum(axis=0) / (dm ** 2).sum()
    return float(slopes.sum())


def kernel() -> float:
    """Seconds one run of the reference kernel took."""
    t0 = time.perf_counter()
    for _ in range(_REPEATS):
        _python_floats()
        _small_arrays()
        _grid_steps()
    return time.perf_counter() - t0
