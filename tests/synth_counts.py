"""Exp-linear synthetic case counts shared by the segmentation, fit and acceptance tests, and the
segmentation objective that the segment tests search exhaustively."""

import math
from typing import Sequence

import numpy as np

from epigrowth.errors import ConfigError


def piecewise_log_linear_counts(
    i0: float,
    slopes: Sequence[float],
    lengths: Sequence[int],
    rng: np.random.Generator | None = None,
    noise_sigma: float = 0.0,
) -> tuple[float, ...]:
    """Counts following exp-linear segments, optionally with lognormal noise."""
    if len(slopes) != len(lengths):
        raise ConfigError(f"{len(slopes)} slopes vs {len(lengths)} lengths")
    if i0 <= 0:
        raise ConfigError("i0 must be positive")
    log_i = math.log(i0)
    logs = [log_i]
    for slope, length in zip(slopes, lengths):
        if length < 1:
            raise ConfigError("segment lengths must be >= 1")
        for _ in range(length):
            log_i += slope
            logs.append(log_i)
    logs = logs[: sum(lengths)]  # one count per day of the window
    if noise_sigma > 0.0:
        if rng is None:
            raise ConfigError("noise_sigma > 0 needs an rng")
        logs = [v + rng.normal(0.0, noise_sigma) for v in logs]
    return tuple(math.exp(v) for v in logs)


def window_objective(fits, bounds: Sequence[int]) -> float:
    """Length-weighted mean R2 of ``fits``, a ``segment._WindowFits``, with periods 2-5 starting
    on the window-relative days ``bounds``; -inf when a period holds fewer than 2 points."""
    days = len(fits.before) - 1
    cuts = [0, *bounds, days]
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        fit = fits.segment_fit(lo, hi)
        if fit is None:
            return -math.inf
        total += fit[2] * (hi - lo)
    return total / days
