"""Per-period (beta, gamma) tuning against observed log-growth slopes.

A growth rate is the log-linear slope over a period's positive data days,
which ``segment._WindowFits`` holds for the data and for a simulated run; the
grid scores its candidates over the same days.
The tuner works period by period, carrying the simulated state across
boundaries: for each period it evaluates a (beta, gamma) grid, keeps the
candidate whose fitted log-I slope is closest to the data slope (ties to the
smaller beta, then smaller gamma), shrinks the grid ten-fold around the
incumbent for each refinement level, then commits the winner and moves on.
``tune_batch`` runs many such searches together, one model at a time: per
period and refinement level one call of the ``sir`` step kernel evaluates
every job's grid, and one more commits every job's winner, one column each,
through ``sir._commit`` as ``sir.simulate`` does, to the same end day, so a
re-simulation with the tuned parameters reproduces the committed trajectory
bit for bit.  Each job scores and ends exactly as it would alone; ``tune`` is
a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError, InsufficientDataError, PipelineError, ValidationError
from .regress import _ols_slope
from .segment import NUM_PERIODS, PeriodSet, _WindowFits
from .sir import (
    DEFAULT_TAU1,
    DEFAULT_TAU2,
    InflowSeries,
    PiecewiseParams,
    SirState,
    Trajectory,
    _commit,
    _euler_days,
    _inflow_values,
    check_variant,
)
from .timeseries import CaseSeries

DEFAULT_S0_SCALE = 1e5
# Grid columns per kernel call across a batch's jobs, set by measurement.
_BATCH_COLUMNS = 16_384


def weighted_mean(values: Sequence[float], lengths: Sequence[int]) -> float:
    """Length-weighted mean: summed left to right, then divided by the integer total length."""
    total = 0.0
    for value, length in zip(values, lengths):
        total += value * length
    return total / sum(lengths)


@dataclass(frozen=True)
class TuneResult:
    """What tune() found: the rates, the run they produce, and how well it fits.

    ``trajectory`` is the committed run itself, so ``simulate(model, params,
    init, periods)`` reproduces it bit for bit.  The other fields are the
    run's ``fit_report.json`` entries: the data and simulated growth rates
    and ``discrepancy(k_sim, k_data, periods)``.
    """

    params: PiecewiseParams
    init: SirState
    trajectory: Trajectory
    k_data: tuple[float, ...]
    k_sim: tuple[float, ...]
    per_period_abs_diff: tuple[float, ...]
    weighted_error: float

    @property
    def as_percent(self) -> float:
        return 100.0 * self.weighted_error


@dataclass(frozen=True)
class SearchConfig:
    """Points per axis and refinement depth for tune(), which searches beta in [0, 1/S0], gamma in [0, 1]."""

    points: int = 101
    refinement_levels: int = 3

    def __post_init__(self) -> None:
        if self.points < 1:
            raise ConfigError("grids need at least one point per axis")
        if self.points**2 * 8 > np.iinfo(np.intp).max:  # one job's float64 candidates in one array
            raise ConfigError(f"a grid of {self.points} points per axis is too large")
        if self.refinement_levels < 0:
            raise ConfigError("refinement_levels must be >= 0")


def _beta_hi(s0: float) -> float:
    """1/S0, the top of the beta range, so beta*S0 spans [0, 1] per day."""
    if not (s0 > 0 and math.isfinite(1.0 / s0)):
        raise ConfigError(f"the beta range [0, 1/S0] needs a positive S0 whose reciprocal is finite, "
                          f"got {s0!r}")
    return 1.0 / s0


def beta_grid(cfg: SearchConfig, s0: float) -> np.ndarray:
    return np.linspace(0.0, _beta_hi(s0), cfg.points)


def gamma_grid(cfg: SearchConfig) -> np.ndarray:
    return np.linspace(0.0, 1.0, cfg.points)


def default_init(series: CaseSeries, periods: PeriodSet) -> SirState:
    """Seed state: I0 = first positive windowed count, S0 = DEFAULT_S0_SCALE * I0, R0 = 0."""
    window = periods.window
    for c in series.within(window)[1]:
        if c > 0:
            return SirState(DEFAULT_S0_SCALE * c, c, 0.0)
    raise InsufficientDataError(
        f"{series.region}: no positive counts inside {window.start}..{window.end} to seed a run"
    )


def _growth_rates(series: CaseSeries, periods: PeriodSet) -> tuple[tuple[float | None, ...], _WindowFits | None]:
    """Each period's slope (None below 2 positive days), and the fits.

    A window without a positive day has no fits and every rate None."""
    try:
        fits = _WindowFits(series, periods.window)
    except InsufficientDataError:
        return (None,) * NUM_PERIODS, None
    cuts = [fits.before[cut] for cut in periods.cuts()]
    return tuple(float(_ols_slope(fits.x[a:b], fits.y[a:b])[0]) if b - a > 1 else None
                 for a, b in zip(cuts, cuts[1:])), fits


def data_growth_rates(series: CaseSeries, periods: PeriodSet) -> tuple[float | None, ...]:
    """Fitted slope of log counts per period; None when unfittable."""
    return _growth_rates(series, periods)[0]


def sim_growth_rates(traj: Trajectory, periods: PeriodSet) -> tuple[float | None, ...]:
    """Fitted slope of log I per period, day 0 at the window start, as the data are fitted."""
    window = periods.window
    if len(traj) < window.days:
        raise ValidationError(
            f"trajectory holds {len(traj)} days but the period window spans {window.days}"
        )
    return _growth_rates(CaseSeries("simulated I", window.start, traj.i[:window.days]), periods)[0]


def discrepancy(k_sim: Sequence[float | None], k_data: Sequence[float | None],
                periods: PeriodSet) -> tuple[tuple[float, ...], float]:
    """|k_sim - k_data| for each of the five periods, and their mean weighted by period length."""
    diffs = []
    for idx, (ks, kd) in enumerate(zip(k_sim, k_data), start=1):
        if ks is None or kd is None:
            side = "simulated" if ks is None else "data"
            raise ValidationError(f"period {idx} has no {side} growth rate to compare")
        diffs.append(abs(ks - kd))
    return tuple(diffs), weighted_mean(diffs, periods.lengths())


def _grid_eval(model: str, days: Sequence[tuple], bvals: np.ndarray, gvals: np.ndarray,
               spans: Sequence[tuple], shared: PiecewiseParams, o_vals: Sequence) -> np.ndarray:
    """|fitted slope - target_k| for each job's (beta, gamma) candidates: (jobs, candidates).

    Every argument but ``model`` and ``shared`` holds one entry per job;
    ``bvals`` and ``gvals`` are (jobs, points), and a job's candidates run
    beta-major.  ``days`` holds each job's committed run through its period's
    first day, seg_lo; one kernel call extends every job through its period,
    scoring as it steps, so the jobs come longest period first.  A span is
    (seg_hi, rows, x_fit, check_boundary, target_k).  Slopes are fitted over
    the fit days, the positive data days behind the data slope: ``rows`` are
    their kernel rows (row d is day seg_lo + d) and ``x_fit`` their days on
    the data's axis.  The slope is
    sum(xc * log I) / sxx, xc being x minus its mean, summed day by day from
    the committed day, logged with ``math.log`` as the data are; the data
    fit subtracts the mean log count and sums pairwise from 8 points, so a
    candidate that reproduces the counts scores the data slope to rounding.

    Candidates whose infected count dies on a fit day, or whose state stops
    being finite, are infeasible (np.inf); with check_boundary the day after
    the segment must stay positive too, or the next period would start from
    an unrecoverable zero.  A job with fewer than two fit days has no slope.
    A candidate dead for good (its score or I not finite) may stop being
    stepped; it still scores np.inf.
    """
    n_jobs, n_b, n_g = len(days), bvals.shape[1], gvals.shape[1]
    seg_hi, rows, x_fit, check_boundary, target_k = zip(*spans)
    lasts = [hi - len(job[0]) + check for job, hi, check in zip(days, seg_hi, check_boundary)]
    xc, fit = np.zeros((max(lasts) + 1, n_jobs, 1)), np.zeros((max(lasts) + 1, n_jobs), dtype=bool)
    sxx, acc = np.ones((n_jobs, 1)), np.zeros((n_jobs, n_b * n_g))
    for j, (r, x, job, last, check) in enumerate(zip(rows, x_fit, days, lasts, check_boundary)):
        if len(r) < 2:
            acc[j] = math.nan
            continue
        fit[last, j] = check  # the boundary day adds 0 * log I: nothing, unless I is 0
        fit[r, j] = True
        xc[r, j, 0] = dx = x - x.sum() / len(r)
        sxx[j] = float((dx**2).sum())
        if r[0] == 0:  # the committed day: one float, logged as the data are
            acc[j] = dx[0] * math.log(job[1][-1]) if job[1][-1] > 0 else math.nan
    acc, finite = _euler_days(model, days, shared, np.repeat(bvals, n_g, axis=1), np.tile(gvals, (1, n_b)),
                              lasts, o_vals, (xc, fit, acc))
    return np.where(finite & np.isfinite(acc), np.abs(acc / sxx - np.array(target_k)[:, None]), np.inf)


class TuneJob:
    """One tune() call: its checked inputs, then its committed run and chosen rates.

    Built from tune()'s arguments, it raises as tune() does.  ``rates``, the
    (slopes, fits) of ``_growth_rates(series, periods)``, may come from a job on
    the same series and periods.  While tune_batch searches a period, ``span``,
    ``window`` and ``best`` hold its fit days, refinement window and
    (objective, beta, gamma).
    """

    def __init__(self, model: str, series: CaseSeries, periods: PeriodSet, cfg: SearchConfig | None = None,
                 *, tau1: int = DEFAULT_TAU1, tau2: int = DEFAULT_TAU2, mu: float = 0.0,
                 epsilon: float = 0.0, inflow: InflowSeries | None = None, init: SirState | None = None,
                 shared_beta: bool = False, rates: tuple | None = None):
        check_variant(model)
        self.cfg = cfg if cfg is not None else SearchConfig()
        self.shared = PiecewiseParams((0.0,) * 5, (0.0,) * 5, tau1=tau1, tau2=tau2, mu=mu, epsilon=epsilon)
        self.init = init if init is not None else default_init(series, periods)
        self.rates = rates if rates is not None else _growth_rates(series, periods)
        self.data, self.fits = self.rates
        for idx, k in enumerate(self.data):
            if k is None:
                raise InsufficientDataError(
                    f"{series.region}: period {idx + 1} has no fittable growth rate"
                )
        self.o_vals = _inflow_values(model, inflow, periods.window.days)
        self.b_hi = _beta_hi(self.init.s)
        self.model, self.region, self.periods, self.shared_beta = model, series.region, periods, shared_beta
        self.cuts = periods.cuts()
        self.days = ([self.init.s], [self.init.i], [self.init.r])
        self.betas: list[float] = []
        self.gammas: list[float] = []
        self.error: PipelineError | None = None

    def result(self) -> TuneResult | PipelineError:
        if self.error is not None:
            return self.error
        traj = Trajectory(*self.days)
        sim = sim_growth_rates(traj, self.periods)
        params = replace(self.shared, beta=tuple(self.betas), gamma=tuple(self.gammas))
        return TuneResult(params, self.init, traj, self.data, sim, *discrepancy(sim, self.data, self.periods))


def tune_batch(jobs: Sequence[TuneJob]) -> list[TuneResult | PipelineError]:
    """Each job's TuneResult, or the PipelineError it failed with, as it would be alone.

    Jobs that share a model, the shared rates, the grid and ``shared_beta``
    run together, at most _BATCH_COLUMNS grid columns at a time: one kernel
    call per period and refinement level, then one that commits every winner.
    Each period's jobs run longest first, each stepped only through its period.
    """
    groups: dict[tuple, list[TuneJob]] = {}
    for job in jobs:
        groups.setdefault((job.model, job.shared, job.cfg, job.shared_beta), []).append(job)
    for group in groups.values():
        size = max(1, _BATCH_COLUMNS // group[0].cfg.points**2)
        for first in range(0, len(group), size):
            _tune_together(group[first:first + size])
    return [job.result() for job in jobs]


def _linspace_rows(lo: np.ndarray, hi: np.ndarray, points: int) -> np.ndarray:
    """Row i is ``np.linspace(lo[i], hi[i], points)``, bit for bit.

    One ``np.linspace(lo, hi, points, axis=1)`` call is not: once any row has a zero
    step it computes every row as (k / div) * delta, where separate calls keep k * step.
    """
    k, div, delta = np.arange(points, dtype=float), max(points - 1, 1), (hi - lo)[:, None]
    rows = np.where(delta / div == 0, k / div * delta, k * (delta / div)) + lo[:, None]
    if points > 1:
        rows[:, -1] = hi
    return rows


def _tune_together(batch: list[TuneJob]) -> None:
    """tune()'s sequential per-period search with refinement and state carry-over, for a batch."""
    model, shared, cfg, shared_beta = batch[0].model, batch[0].shared, batch[0].cfg, batch[0].shared_beta
    for per_idx in range(NUM_PERIODS):
        # Longest period first, as the kernel requires: each step advances only the jobs that take it.
        live = sorted((job for job in batch if job.error is None),
                      key=lambda job: job.cuts[per_idx + 1] - job.cuts[per_idx], reverse=True)
        for job in live:
            seg_lo, seg_hi = job.cuts[per_idx], job.cuts[per_idx + 1]
            fit_lo, fit_hi = job.fits.before[seg_lo], job.fits.before[seg_hi]
            rows, x_fit = job.fits.days[fit_lo:fit_hi] - seg_lo, job.fits.x[fit_lo:fit_hi]
            job.span = (seg_hi, rows, x_fit, seg_hi < job.cuts[5], job.data[per_idx])
            job.window = [0.0, job.b_hi, 0.0, 1.0]
            job.best = None
        for _level in range(cfg.refinement_levels + 1):
            if not live:
                return
            wins = np.array([job.window for job in live], dtype=float).T
            bvals = (np.array([[job.betas[0]] for job in live]) if shared_beta and per_idx
                     else _linspace_rows(wins[0], wins[1], cfg.points))
            gvals = _linspace_rows(wins[2], wins[3], cfg.points)
            obj = _grid_eval(model, [job.days for job in live], bvals, gvals, [job.span for job in live],
                             shared, [job.o_vals for job in live])
            for job, row, j, bs, gs in zip(live, obj, obj.argmin(axis=1), bvals, gvals):
                if math.isfinite(row[j]) and (job.best is None or row[j] < job.best[0]):
                    job.best = (float(row[j]), float(bs[j // len(gs)]), float(gs[j % len(gs)]))
                if job.best is None:  # nothing feasible on the full grid, refinement cannot help
                    job.error = ConfigError(
                        f"{job.region}: no feasible (beta, gamma) grid point for period {per_idx + 1}"
                    )
                    continue
                b_lo, b_hi, g_lo, g_hi = job.window
                half_b, half_g = (b_hi - b_lo) / 20.0, (g_hi - g_lo) / 20.0
                _, beta, gamma = job.best
                job.window = [max(0.0, beta - half_b), min(job.b_hi, beta + half_b),
                              max(0.0, gamma - half_g), min(1.0, gamma + half_g)]
            live = [job for job in live if job.error is None]
        if not live:
            return
        committed = _commit(
            model, [job.days for job in live], shared, [job.best[1] for job in live],
            [job.best[2] for job in live], [job.cuts for job in live], [job.o_vals for job in live],
            per_idx + 1,
        )
        for job, error in zip(live, committed):
            if error is not None:
                job.error = error
                continue
            job.betas.append(job.best[1])
            job.gammas.append(job.best[2])


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
    ``default_init(series, periods)``.  This is ``tune_batch`` on one job.
    """
    (result,) = tune_batch([TuneJob(model, series, periods, cfg, tau1=tau1, tau2=tau2, mu=mu,
                                    epsilon=epsilon, inflow=inflow, init=init, shared_beta=shared_beta)])
    if isinstance(result, PipelineError):
        raise result
    return result
