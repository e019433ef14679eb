"""Exp-linear synthetic case counts shared by the segmentation, fit and acceptance tests."""

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
