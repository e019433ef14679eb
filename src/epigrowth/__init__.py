"""Metro-level epidemic growth analysis.

Segments case curves into five log-linear periods, tunes per-period rates for
four SIR-style variants (original, delayed, reinfection, tourism), and runs
demographic and weather correlation studies on the fitted growth rates.
The package exports the names of the README's library example; every other
name is imported from its module.
"""

from .fit import tune
from .segment import DEFAULT_WINDOW, default_anchors, initial_periods, optimize_boundaries
from .timeseries import aggregate_to_metros, load_cases, load_metro_map

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_WINDOW",
    "aggregate_to_metros",
    "default_anchors",
    "initial_periods",
    "load_cases",
    "load_metro_map",
    "optimize_boundaries",
    "tune",
]
