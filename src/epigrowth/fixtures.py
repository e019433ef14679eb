"""Synthetic data bundles for demos and end-to-end runs.

Metro case counts come from a piecewise reinfection-variant simulation whose
per-period rates sit exactly on the default tuning grid, so a tuned refit can
land back on the generating parameters.  Demographics are independent uniform
percentages with one optional planted linear relation; weather is uniform
spring-range temperatures and a categorical sky type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import Mapping, Sequence

import numpy as np

from .correlate import DemographicTable
from .errors import ConfigError
from .fit import DEFAULT_S0_SCALE, SearchConfig, beta_grid, gamma_grid
from .segment import (
    DEFAULT_ANNOUNCEMENT,
    DEFAULT_WINDOW,
    PeriodSet,
    default_anchors,
    initial_periods,
)
from .sir import InflowSeries, PiecewiseParams, SirState, simulate
from .timeseries import CaseSeries, DateInterval

FIXTURE_MU = 0.2
FIXTURE_TAU1 = 5
FIXTURE_TAU2 = 14
GROUP_SUBCATS = {
    "age": ("30-to-60", "over-60", "under-30"),
    "gender": ("female", "male"),
    "income": ("high", "low", "middle"),
    "education": ("college", "no-college", "post-grad"),
}
PLANTED_CELL = ("education", "post-grad")
PLANTED_NOISE = 0.05  # sd of the noise on the planted cell's percentages
FIXTURE_WEATHER_KINDS = ("sunny", "rainy", "cloudy", "foggy")

# Per-period index windows into the 101-point default grids, chosen so
# beta*S0 and gamma alternate between net growth and mild decay.  Decay-period
# gamma must stay small: the removal term reads I fourteen days back, which
# sits near the previous peak for the whole first half of a decay period, so
# gamma above ~0.05 there drives I to zero before the period ends.  Growth
# periods carry larger gamma (discounted by the lag) to build up the removed
# pool, which keeps the reinfection term material.
_BETA_IDX_RANGES = ((22, 30), (0, 1), (22, 30), (0, 1), (22, 30))
_GAMMA_IDX_RANGES = ((8, 12), (3, 5), (8, 12), (2, 3), (8, 12))


@dataclass(frozen=True)
class MetroTruth:
    i0: float
    s0: float
    params: PiecewiseParams
    counties: tuple[str, str]


@dataclass(frozen=True)
class FixtureBundle:
    window: DateInterval
    announcement: date
    anchors: tuple[date, ...]
    periods: PeriodSet
    cases: tuple[CaseSeries, ...]
    metro_map: dict[str, str]
    demographics: DemographicTable
    weather: dict[str, dict[date, tuple[str, float, float]]]
    inflow: InflowSeries
    truths: Mapping[str, MetroTruth]
    seed: int

    def manifest(self) -> dict:
        return {
            "seed": self.seed,
            "window": {"start": self.window.start.isoformat(), "end": self.window.end.isoformat()},
            "announcement": self.announcement.isoformat(),
            "anchors": [d.isoformat() for d in self.anchors],
            "globals": {
                "tau1": FIXTURE_TAU1,
                "tau2": FIXTURE_TAU2,
                "mu": FIXTURE_MU,
                "s0_scale": DEFAULT_S0_SCALE,
            },
            "metros": {
                name: {
                    "i0": truth.i0,
                    "s0": truth.s0,
                    "beta": list(truth.params.beta),
                    "gamma": list(truth.params.gamma),
                    "beta_s0": [beta * truth.s0 for beta in truth.params.beta],
                    "counties": list(truth.counties),
                }
                for name, truth in sorted(self.truths.items())
            },
        }


def synth_demographics(
    rng: np.random.Generator,
    response: Mapping[str, float],
    planted: tuple[str, str] | None = PLANTED_CELL,
) -> DemographicTable:
    """Uniform percentages per metro/group/subcategory; one cell optionally
    rescaled from the response so its regression recovers a strong fit."""
    metros = sorted(response)
    ys = [response[m] for m in metros]
    lo, hi = (min(ys), max(ys)) if ys else (0.0, 0.0)
    spread = hi - lo
    values: dict[str, dict[str, dict[str, float]]] = {}
    for group in sorted(GROUP_SUBCATS):
        per_group = values.setdefault(group, {})
        for metro in metros:
            per_metro = per_group.setdefault(metro, {})
            for subcat in GROUP_SUBCATS[group]:
                if planted == (group, subcat) and spread > 0:
                    scaled = 10.0 + 30.0 * (response[metro] - lo) / spread
                    value = scaled + rng.normal(0.0, PLANTED_NOISE)
                else:
                    value = rng.uniform(5.0, 45.0)
                per_metro[subcat] = float(min(100.0, max(0.0, value)))
    return DemographicTable(values)


def synth_weather(
    rng: np.random.Generator,
    metros: Sequence[str],
    window: DateInterval,
) -> dict[str, dict[date, tuple[str, float, float]]]:
    values: dict[str, dict[date, tuple[str, float, float]]] = {}
    for metro in sorted(metros):
        by_day = values[metro] = {}
        for day in window.dates():
            high = float(rng.uniform(58.0, 95.0))
            low = float(rng.uniform(42.0, min(72.0, high)))
            by_day[day] = (str(rng.choice(FIXTURE_WEATHER_KINDS)), high, low)
    return values


def _split_county_counts(counts: Sequence[float]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    first = tuple(float(round(0.6 * c)) for c in counts)
    second = tuple(c - a for c, a in zip(counts, first))
    return first, second


def make_bundle(
    seed: int,
    n_metros: int = 8,
    window: DateInterval = DEFAULT_WINDOW,
    announcement: date = DEFAULT_ANNOUNCEMENT,
    anchors: tuple[date, ...] | None = None,
    round_counts: bool = True,
) -> FixtureBundle:
    """Deterministic synthetic bundle of n_metros metros over the window.

    round_counts=False keeps the exact simulated infected values as counts, so
    a tuned model that lands on the generating parameters reproduces them bit
    for bit; the CSV-facing default rounds to whole cases.
    """
    if n_metros < 1:
        raise ConfigError("need at least one metro")
    rng = np.random.default_rng(seed)
    if anchors is None:
        anchors = default_anchors(announcement)
    periods = initial_periods(window, anchors)
    cfg = SearchConfig()
    ggrid = gamma_grid(cfg)

    truths: dict[str, MetroTruth] = {}
    cases: list[CaseSeries] = []
    map_entries: dict[str, str] = {}
    per_metro_avg: dict[str, float] = {}
    for m in range(1, n_metros + 1):
        metro = f"metro-{m:02d}"
        i0 = float(rng.integers(100_000, 300_001))
        s0 = DEFAULT_S0_SCALE * i0
        bgrid = beta_grid(cfg, s0)
        betas = []
        gammas = []
        for (b_lo, b_hi), (g_lo, g_hi) in zip(_BETA_IDX_RANGES, _GAMMA_IDX_RANGES):
            betas.append(float(bgrid[int(rng.integers(b_lo, b_hi + 1))]))
            gammas.append(float(ggrid[int(rng.integers(g_lo, g_hi + 1))]))
        params = PiecewiseParams(
            betas, gammas, tau1=FIXTURE_TAU1, tau2=FIXTURE_TAU2, mu=FIXTURE_MU, epsilon=0.0
        )
        traj = simulate("reinfect", params, SirState(s0, i0, 0.0), periods)
        if round_counts:
            counts = tuple(float(round(i)) for i in traj.i)
        else:
            counts = traj.i
        county_a, county_b = f"{metro}-east", f"{metro}-west"
        split_a, split_b = _split_county_counts(counts)
        cases.append(CaseSeries(county_a, window.start, split_a))
        cases.append(CaseSeries(county_b, window.start, split_b))
        map_entries[county_a] = metro
        map_entries[county_b] = metro
        truths[metro] = MetroTruth(i0, s0, params, (county_a, county_b))

        logs = [math.log(c) for c in counts if c > 0]
        daily = [b - a for a, b in zip(logs, logs[1:])]
        # crude per-metro response stand-in; the real pipeline recomputes it
        per_metro_avg[metro] = sum(daily) / len(daily) if daily else 0.0

    demo = synth_demographics(rng, per_metro_avg)
    weather = synth_weather(rng, sorted(truths), window)
    inflow = InflowSeries(tuple(float(round(rng.uniform(0.0, 100.0), 2)) for _ in range(window.days)))
    return FixtureBundle(
        window=window,
        announcement=announcement,
        anchors=tuple(anchors),
        periods=periods,
        cases=tuple(sorted(cases, key=lambda s: s.region)),
        metro_map=dict(sorted(map_entries.items())),
        demographics=demo,
        weather=weather,
        inflow=inflow,
        truths=truths,
        seed=seed,
    )
