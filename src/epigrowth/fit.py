"""Per-period (beta, gamma) tuning against observed log-growth slopes.

The tuner works period by period, carrying the simulated state across
boundaries: for each period it evaluates a (beta, gamma) grid, keeps the
candidate whose fitted log-I slope is closest to the data slope (ties to the
smaller beta, then smaller gamma), shrinks the grid ten-fold around the
incumbent for each refinement level, then commits the winner and moves on.
Grid candidates run through the step kernel of ``sir`` as one batch; the
winner is committed through the same kernel as a one-candidate batch, exactly
as ``sir.simulate`` runs it, so a re-simulation with the tuned parameters
reproduces the committed trajectory bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError, InsufficientDataError, ValidationError
from .regress import _ols_slope, fit_simple
from .segment import PeriodSet
from .sir import (
    DEFAULT_TAU1,
    DEFAULT_TAU2,
    VARIANTS,
    InflowSeries,
    PiecewiseParams,
    SirParams,
    SirState,
    Trajectory,
    _commit,
    _euler_days,
    _inflow_values,
    simulated_growth_rates,
)
from .timeseries import CaseSeries, to_log_series

DEFAULT_S0_SCALE = 1e5
GROWTH_SOURCES = ("data", "simulation")


@dataclass(frozen=True)
class GrowthRates:
    """Five per-period log-I slopes plus the positive-day sample counts behind them."""

    k: tuple[float | None, ...]
    n: tuple[int, ...]
    source: str

    def __post_init__(self) -> None:
        if len(self.k) != 5 or len(self.n) != 5:
            raise ValidationError("growth rates carry exactly 5 periods")
        if self.source not in GROWTH_SOURCES:
            raise ValidationError(f"source must be one of {GROWTH_SOURCES}, got {self.source!r}")
        for v in self.k:
            if v is not None and not math.isfinite(v):
                raise ValidationError(f"growth rate must be finite or None, got {v!r}")
        for c in self.n:
            if c < 0:
                raise ValidationError("sample counts must be >= 0")


@dataclass(frozen=True)
class PeriodDiscrepancy:
    abs_diff: float
    length: int


@dataclass(frozen=True)
class DiscrepancyReport:
    """Length-weighted mean absolute slope gap; ``as_percent`` is 100x the rate."""

    per_period: tuple[PeriodDiscrepancy, ...]
    weighted_error: float
    as_percent: float

    def __post_init__(self) -> None:
        total = sum(p.abs_diff * p.length for p in self.per_period)
        length = sum(p.length for p in self.per_period)
        if length <= 0:
            raise ValidationError("period lengths must sum to a positive number")
        if abs(self.weighted_error - total / length) > 1e-12:
            raise ValidationError("weighted_error does not match its per-period terms")
        if abs(self.as_percent - 100.0 * self.weighted_error) > 1e-10:
            raise ValidationError("as_percent must be 100 * weighted_error")


@dataclass(frozen=True)
class TuneResult:
    """What tune() found: the rates, the run they produce, and how well it fits.

    ``trajectory`` is the committed run itself, so ``simulate(model, params,
    init, periods)`` reproduces it bit for bit, clamp count included.
    """

    params: PiecewiseParams
    init: SirState
    trajectory: Trajectory
    data_rates: GrowthRates
    sim_rates: GrowthRates
    report: DiscrepancyReport


@dataclass(frozen=True)
class SearchConfig:
    """Grid ranges and refinement depth for tune().

    ``beta_max`` None means auto-scale to 1/S0 so beta*S0 spans [0, 1] per day.
    """

    beta_min: float = 0.0
    beta_max: float | None = None
    beta_points: int = 101
    gamma_min: float = 0.0
    gamma_max: float = 1.0
    gamma_points: int = 101
    refinement_levels: int = 3

    def __post_init__(self) -> None:
        if self.beta_points < 1 or self.gamma_points < 1:
            raise ConfigError("grids need at least one point per axis")
        if self.refinement_levels < 0:
            raise ConfigError("refinement_levels must be >= 0")
        if self.beta_min < 0 or self.gamma_min < 0:
            raise ConfigError("rate grids start at or above 0")
        if self.beta_max is not None and self.beta_max < self.beta_min:
            raise ConfigError("beta_max must be >= beta_min")
        if self.gamma_max < self.gamma_min:
            raise ConfigError("gamma_max must be >= gamma_min")


def _beta_range(cfg: SearchConfig, s0: float) -> tuple[float, float]:
    """``(beta_min, beta_max)`` of the search, beta_max auto-scaled to 1/S0 when unset."""
    if cfg.beta_max is None and s0 <= 0:
        raise ConfigError("beta_max auto-scaling needs a positive initial susceptible count")
    hi = cfg.beta_max if cfg.beta_max is not None else 1.0 / s0
    if hi < cfg.beta_min:
        raise ConfigError("auto-scaled beta_max fell below beta_min")
    return cfg.beta_min, hi


def beta_grid(cfg: SearchConfig, s0: float) -> np.ndarray:
    return np.linspace(*_beta_range(cfg, s0), cfg.beta_points)


def gamma_grid(cfg: SearchConfig) -> np.ndarray:
    return np.linspace(cfg.gamma_min, cfg.gamma_max, cfg.gamma_points)


def default_init(series: CaseSeries, periods: PeriodSet, s0_scale: float = DEFAULT_S0_SCALE) -> SirState:
    """Seed state: I0 = first positive windowed count, S0 = s0_scale * I0, R0 = 0."""
    window = periods.window
    for c in series.within(window)[1]:
        if c > 0:
            return SirState(s0_scale * c, c, 0.0)
    raise InsufficientDataError(
        f"{series.region}: no positive counts inside {window.start}..{window.end} to seed a run"
    )


def data_growth_rates(series: CaseSeries, periods: PeriodSet) -> GrowthRates:
    """Fitted slope of log counts per period; None (with n recorded) when unfittable."""
    ks: list[float | None] = []
    ns: list[int] = []
    for p in periods.periods:
        try:
            log = to_log_series(series, p.interval)
        except InsufficientDataError:
            ks.append(None)
            ns.append(0)
            continue
        if len(log) < 2:
            ks.append(None)
            ns.append(len(log))
            continue
        ks.append(fit_simple(log).slope)
        ns.append(len(log))
    return GrowthRates(tuple(ks), tuple(ns), "data")


def sim_growth_rates(traj: Trajectory, periods: PeriodSet) -> GrowthRates:
    """simulated_growth_rates wrapped with per-period positive-day counts."""
    slopes = simulated_growth_rates(traj, periods)
    window = periods.window
    ns = []
    for p in periods.periods:
        off = (p.start - window.start).days
        ns.append(sum(1 for d in range(p.length) if traj.states[off + d].i > 0))
    return GrowthRates(slopes, tuple(ns), "simulation")


def discrepancy(sim: GrowthRates, data: GrowthRates, periods: PeriodSet) -> DiscrepancyReport:
    """Length-weighted mean |k_sim - k_data| across the five periods."""
    per = []
    total = 0.0
    length = 0
    for idx, p in enumerate(periods.periods):
        ks, kd = sim.k[idx], data.k[idx]
        if ks is None or kd is None:
            side = "simulated" if ks is None else "data"
            raise ValidationError(f"period {idx + 1} has no {side} growth rate to compare")
        diff = abs(ks - kd)
        per.append(PeriodDiscrepancy(diff, p.length))
        total += diff * p.length
        length += p.length
    weighted = total / length
    return DiscrepancyReport(tuple(per), weighted, 100.0 * weighted)


def _grid_eval(
    model: str,
    days: tuple[list[float], list[float], list[float]],
    bvals: np.ndarray,
    gvals: np.ndarray,
    seg_lo: int,
    seg_hi: int,
    x_off: int,
    fit_days: np.ndarray,
    check_boundary: bool,
    target_k: float,
    shared: SirParams,
    o_vals: Sequence[float] | None,
) -> np.ndarray:
    """|fitted slope - target_k| for every (beta, gamma) candidate, beta-major order.

    ``days`` holds the committed run through day ``seg_lo``.  The step kernel
    extends it through the period for all candidates at once, taking the
    delays and the mu/epsilon rates from ``shared``.  Slopes are fitted over
    fit_days, the day subset behind the data slope, so the two are
    comparable: x values sit on the same day axis, and a candidate whose
    trajectory reproduces the observed counts scores within float rounding of
    the data slope, so a nearby grid point cannot displace it.  The batch sums
    day by day, which fit_simple does only below 8 points, so the two agree
    to rounding, not bit for bit.

    Candidates whose infected count dies on a fit day, or whose state stops
    being finite, are marked infeasible (np.inf); with check_boundary the day
    after the segment, which this period's committed parameters also produce,
    must stay positive too, or the next period would start from an
    unrecoverable zero.
    """
    n_cand = len(bvals) * len(gvals)
    rows = np.flatnonzero(fit_days)  # block row d is day seg_lo + d
    if len(rows) < 2:
        return np.full(n_cand, np.inf)
    block, _, finite = _euler_days(
        model, days, np.repeat(bvals, len(gvals)), np.tile(gvals, len(bvals)),
        seg_hi + (1 if check_boundary else 0),
        shared.tau1, shared.tau2, shared.mu, shared.epsilon, o_vals,
    )
    # Fit rows without a gap are a view: the block is this call's own scratch.
    y = block[rows[0]:rows[-1] + 1] if rows[-1] - rows[0] == len(rows) - 1 else block[rows]
    alive = finite & (y > 0).all(axis=0)
    if check_boundary:
        alive &= block[-1] > 0
    # Dead candidates are masked below; 1.0 keeps np.log off its slow path for 0 and inf.
    np.copyto(y, 1.0, where=~alive)
    np.log(y, out=y)
    if rows[0] == 0 and days[1][-1] > 0:
        y[0] = math.log(days[1][-1])  # the committed day: one float, logged as the data are
    x_fit = np.arange(x_off + seg_lo, x_off + seg_hi, dtype=float)[fit_days]
    slope = _ols_slope(x_fit, y)[0]
    return np.where(alive, np.abs(slope - target_k), np.inf)


def tune(
    model: str,
    series: CaseSeries,
    periods: PeriodSet,
    cfg: SearchConfig | None = None,
    *,
    tau1: int = DEFAULT_TAU1,
    tau2: int = DEFAULT_TAU2,
    mu: float = 0.0,
    epsilon: float = 0.0,
    inflow: InflowSeries | None = None,
    init: SirState | None = None,
    shared_beta: bool = False,
) -> TuneResult:
    """Sequential per-period grid search with refinement and state carry-over.

    With ``shared_beta`` the first period fixes beta for all later periods and
    only gamma is searched afterwards.  ``init`` defaults to
    ``default_init(series, periods)``.
    """
    if model not in VARIANTS:
        raise ConfigError(f"unknown model variant {model!r}; choose from {', '.join(VARIANTS)}")
    cfg = cfg if cfg is not None else SearchConfig()
    shared = SirParams(0.0, 0.0, tau1=tau1, tau2=tau2, mu=mu, epsilon=epsilon)
    if init is None:
        init = default_init(series, periods)
    data = data_growth_rates(series, periods)
    for idx, k in enumerate(data.k):
        if k is None:
            raise InsufficientDataError(
                f"{series.region}: period {idx + 1} has no fittable growth rate"
            )

    window = periods.window
    o_vals = _inflow_values(model, inflow, window.days)

    b_lo0, b_hi0 = _beta_range(cfg, init.s)
    g_lo0, g_hi0 = cfg.gamma_min, cfg.gamma_max

    cuts = [0]
    for p in periods.periods:
        cuts.append(cuts[-1] + p.length)
    x_off = (window.start - series.start_date).days

    days: tuple[list[float], list[float], list[float]] = ([init.s], [init.i], [init.r])
    per_period: list[SirParams] = []
    clamp_events = 0
    for per_idx in range(5):
        seg_lo, seg_hi = cuts[per_idx], cuts[per_idx + 1]
        target = data.k[per_idx]
        first, counts = series.within(periods.periods[per_idx].interval)
        lead = first - x_off - seg_lo  # the period's day of the first series count in it
        fit_days = np.zeros(seg_hi - seg_lo, dtype=bool)
        fit_days[lead:lead + len(counts)] = np.array(counts) > 0
        check_boundary = seg_hi < cuts[5]
        b_lo, b_hi = b_lo0, b_hi0
        g_lo, g_hi = g_lo0, g_hi0
        incumbent: tuple[float, float, float] | None = None  # (objective, beta, gamma)
        for _level in range(cfg.refinement_levels + 1):
            if shared_beta and per_idx > 0:
                bvals = np.array([per_period[0].beta])
            else:
                bvals = np.linspace(b_lo, b_hi, cfg.beta_points)
            gvals = np.linspace(g_lo, g_hi, cfg.gamma_points)
            obj = _grid_eval(
                model, days, bvals, gvals, seg_lo, seg_hi, x_off, fit_days,
                check_boundary, target, shared, o_vals,
            )
            j = int(np.argmin(obj))
            if math.isfinite(obj[j]) and (incumbent is None or obj[j] < incumbent[0]):
                incumbent = (float(obj[j]), float(bvals[j // len(gvals)]), float(gvals[j % len(gvals)]))
            if incumbent is None:
                break  # nothing feasible on the full grid, refinement cannot help
            half_b = (b_hi - b_lo) / 20.0
            half_g = (g_hi - g_lo) / 20.0
            b_lo = max(b_lo0, incumbent[1] - half_b)
            b_hi = min(b_hi0, incumbent[1] + half_b)
            g_lo = max(g_lo0, incumbent[2] - half_g)
            g_hi = min(g_hi0, incumbent[2] + half_g)
        if incumbent is None:
            raise ConfigError(
                f"{series.region}: no feasible (beta, gamma) grid point for period {per_idx + 1}"
            )
        # Commit through the next period's first day: simulate() charges the
        # step leaving day t to the period containing t, so that state belongs
        # to this period's parameters.  The last period stops at the window end.
        p = replace(shared, beta=incumbent[1], gamma=incumbent[2])
        clamp_events += _commit(model, days, p, min(seg_hi + 1, cuts[5]), o_vals, per_idx + 1)
        per_period.append(p)

    states = tuple(SirState(s, i, r) for s, i, r in zip(*days))
    traj = Trajectory(states, t0=0, clamp_events=clamp_events)
    sim = sim_growth_rates(traj, periods)
    return TuneResult(
        PiecewiseParams(tuple(per_period)), init, traj, data, sim, discrepancy(sim, data, periods)
    )
