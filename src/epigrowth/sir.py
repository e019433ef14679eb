"""Discrete SIR variants: original, time-delayed, reinfection, and tourism inflow.

All variants advance through one array-valued forward-Euler kernel at a fixed
step of one day; a variant only changes which values feed it.  That keeps the
degenerate cases (tau=0, mu=0, epsilon=0) bit-for-bit equal to the simpler
models.  The kernel steps a batch of jobs, each from its own committed day:
the tuner runs the (beta, gamma) grids of many jobs in one call and commits
their winners in another, ``simulate`` runs one job with one candidate, and
float64 arithmetic is the same elementwise at every batch size.  Both commit
through ``_commit``, the one place that says on which day a period's run
ends.  Negative values are clamped to zero and counted; a clamp can create
population, since the flow that overdrew a compartment still reaches the next
one in full.  A state that stops being finite raises StateError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import IO

import numpy as np

from .errors import ConfigError, ParseError, StateError, ValidationError
from .segment import PeriodSet
from .timeseries import _nonneg_column, read_table, write_table

VARIANTS = ("original", "delayed", "reinfect", "tourism")
DEFAULT_TAU1 = 5
DEFAULT_TAU2 = 14

INFLOW_HEADER = ("day", "o")
TRAJECTORY_HEADER = ("day", "s", "i", "r")


def _check_nonneg(name: str, value: float) -> float:
    v = float(value)
    if not math.isfinite(v) or v < 0:
        raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")
    return v


@dataclass(frozen=True)
class SirState:
    s: float
    i: float
    r: float

    def __post_init__(self) -> None:
        for name in ("s", "i", "r"):
            object.__setattr__(self, name, _check_nonneg(name, getattr(self, name)))


@dataclass(frozen=True)
class Trajectory:
    """Daily S, I and R columns; day j is day j of the period window."""

    s: tuple[float, ...]
    i: tuple[float, ...]
    r: tuple[float, ...]
    clamp_events: int = 0

    def __post_init__(self) -> None:
        if not self.s:
            raise ValidationError("trajectory must hold at least one state")
        for name in ("s", "i", "r"):
            column = _nonneg_column(getattr(self, name), name, show_raw=True)
            if len(column) != len(self.s):
                raise ValidationError("trajectory columns must hold the same number of days")
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.s)


@dataclass(frozen=True)
class PiecewiseParams:
    """Per-period beta and gamma; the delays, reinfection and inflow rates are shared."""

    beta: tuple[float, ...]
    gamma: tuple[float, ...]
    tau1: int = 0
    tau2: int = 0
    mu: float = 0.0
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if len(self.beta) != 5 or len(self.gamma) != 5:
            raise ValidationError("need 5 betas and 5 gammas")
        for name in ("beta", "gamma"):
            object.__setattr__(self, name, tuple(_check_nonneg(name, v) for v in getattr(self, name)))
        for name in ("mu", "epsilon"):
            object.__setattr__(self, name, _check_nonneg(name, getattr(self, name)))
        for name in ("tau1", "tau2"):
            tau = getattr(self, name)
            if not isinstance(tau, int) or isinstance(tau, bool) or tau < 0:
                raise ValidationError(f"{name} must be a non-negative integer, got {tau!r}")


@dataclass(frozen=True)
class InflowSeries:
    """Daily outside-visitor counts O(t), day 0 aligned with the simulation window."""

    o: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "o", _nonneg_column(self.o, "inflow values"))

    def __len__(self) -> int:
        return len(self.o)


def _euler_days(model, days, params: PiecewiseParams, beta, gamma, steps, o_vals, record=False):
    """Step a batch of jobs, job j from its last committed day for ``steps[j]`` days.

    This is the one forward-Euler step of every variant.  ``days`` holds each
    job's committed (s, i, r) float lists, m_j days long; ``beta`` and
    ``gamma`` are (jobs, candidates) arrays; ``o_vals`` holds each job's
    inflow (tourism only); ``params`` supplies the delays and the mu/epsilon
    rates.  Delayed reads before day 0 return day 0 (constant pre-history);
    ``original`` reads today.  Negative values are clamped to zero.  Returns
    (block, clamps, finite).  ``block`` is (days, jobs, candidates), row k
    holding the I of each job's day m_j - 1 + k, so one lag index serves the
    batch.  Step k advances the jobs up to the last one that takes it: with
    steps in descending order, only the running ones.  A row past a job's
    steps may never have been written.  With ``record`` it is (3, days, jobs,
    candidates), holding S, I and R, and ``clamps`` counts each job's negative
    raw values; without, S and R are kept for the current day only.
    ``finite`` marks the candidates whose state was finite on their job's
    last day: a non-finite value never leaves the state again.
    """
    top, epsilon = max(steps), params.epsilon
    # A lag past a job's committed days plus its steps reads day 0 at any length.
    cap = 0 if model == "original" else top + max(len(i) for _, i, _ in days)
    tau1, tau2 = min(params.tau1, cap), min(params.tau2, cap)
    # With mu = 0 the reentries term is +0.0, and adding it changes no clamped value.
    mu = params.mu if model == "reinfect" else 0.0
    reach = max(tau1, tau2)
    # I history right-aligned on each job's last day: row reach - d is day m_j - 1 - d, or day 0.
    hist = np.array([[i[0]] * (reach + 1 - len(i)) + i[-reach - 1:] for _, i, _ in days]).T[:, :, None]
    start = np.array([[seq[-1] for seq in job] for job in days]).T[:, :, None]
    shape = beta.shape
    if record:
        block = np.empty((3, top + 1, *shape))
        block[:, 0] = start
        raw = np.empty((3, top, *shape))
    else:
        block = np.empty((top + 1, *shape))
        block[0] = start[1]
        today = np.broadcast_to(start[::2], (2, *shape)).copy()  # S and R of the current day
    # The jobs that end on each step, as a slice where they are adjacent (as in descending order).
    ends = {m: [j for j, n in enumerate(steps) if n == m] for m in set(steps)}
    ends = {m: slice(js[0], js[-1] + 1) if js[-1] - js[0] < len(js) else js for m, js in ends.items()}
    finite = np.broadcast_to(np.isfinite(start).all(axis=0), shape).copy()  # kept by a job taking no step
    scratch = np.empty((3, *shape))
    # tail[j], the most steps of job j or a later one: steps tail[n] + 1 .. tail[n - 1] advance jobs :n
    tail = [*accumulate(reversed(steps), max)][::-1] + [0]
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite is checked below
        for n in range(len(steps), 0, -1):
            b, g, h, inflows = beta[:n], gamma[:n], hist[:, :n], o_vals[:n]
            new_infections, removals, reentries = scratch[:, :n]
            i_rows = block[1, :, :n] if record else block[:, :n]
            s, r = block[::2, tail[n], :n] if record else today[:, :n]
            for k in range(tail[n] + 1, tail[n - 1] + 1):
                lag1, lag2 = k - 1 - tau1, k - 1 - tau2
                np.multiply(b, i_rows[lag1] if lag1 >= 0 else h[reach + lag1], out=new_infections)
                new_infections *= s
                np.multiply(g, i_rows[lag2] if lag2 >= 0 else h[reach + lag2], out=removals)
                if mu:
                    np.multiply(mu, r, out=reentries)
                s_new, i_new, r_new = raw[:, k - 1, :n] if record else (s, i_rows[k], r)
                np.subtract(s, new_infections, out=s_new)
                np.add(i_rows[k - 1], new_infections, out=i_new)
                i_new -= removals
                np.add(r, removals, out=r_new)
                if mu:
                    s_new += reentries
                    r_new -= reentries
                if model == "tourism":  # a job past its own steps reads its last inflow day
                    o_day = [[o[min(len(i) + k - 2, len(o) - 1)]] for (_, i, _), o in zip(days, inflows)]
                    s_new += epsilon * np.array(o_day)
                if record:
                    s, r = block[::2, k, :n]
                np.maximum(s_new, 0.0, out=s)
                np.maximum(i_new, 0.0, out=i_rows[k])
                np.maximum(r_new, 0.0, out=r)
                if k in ends:
                    done = ends[k]
                    finite[done] = np.isfinite(s[done]) & np.isfinite(i_rows[k, done]) & np.isfinite(r[done])
    clamps = [int(np.count_nonzero(raw[:, :n, j] < 0.0)) for j, n in enumerate(steps)] if record else []
    return block, clamps, finite


def _inflow_values(model: str, inflow: InflowSeries | None, horizon: int):
    """Daily inflow for the tourism variant (None for the others), checked for length."""
    if model != "tourism":
        return None
    if inflow is None:
        raise ConfigError("tourism variant requires an inflow series")
    if len(inflow) < horizon - 1:
        raise ConfigError(f"inflow series covers {len(inflow)} days, need {horizon - 1} steps")
    return inflow.o


def _commit(model, days, params: PiecewiseParams, beta, gamma, cuts, o_vals, period) -> list:
    """Extend each job's committed day lists through period ``period`` at its (beta, gamma).

    ``cuts`` holds each job's ``PeriodSet.cuts()``.  A period is committed
    through the next period's first day: the step leaving day t is charged to
    the period containing t, so that state belongs to this period's
    parameters.  The last period stops at the window end.  Runs the step
    kernel with one column per job.  Returns each job's clamp count, or the
    StateError naming the model, the first bad day and the period for a job
    whose state stopped being finite.
    """
    starts = [len(job[0]) for job in days]
    steps = [min(c[period] + 1, c[-1]) - start for start, c in zip(starts, cuts)]
    block, clamps, finite = _euler_days(
        model, days, params, np.array(beta)[:, None], np.array(gamma)[:, None], steps, o_vals, record=True
    )
    for j, (job, start, n) in enumerate(zip(days, starts, steps)):
        for seq, col in zip(job, block[:, 1:n + 1, j, 0]):
            seq.extend(col.tolist())
        if not finite[j, 0]:
            day = start + int(np.flatnonzero(~np.isfinite(block[:, 1:n + 1, j, 0]).all(axis=0))[0])
            clamps[j] = StateError(
                f"{model}: state is no longer finite on day {day} (period {period}); "
                "the rates are too large for this population"
            )
    return clamps


def simulate(
    model: str,
    params: PiecewiseParams,
    init: SirState,
    periods: PeriodSet,
    inflow: InflowSeries | None = None,
) -> Trajectory:
    """Run ``model`` across the full period window, switching beta/gamma per period.

    Day 0 of the trajectory is the window start; the step leaving day t uses
    the parameters of the period containing day t.
    """
    if model not in VARIANTS:
        raise ConfigError(f"unknown model variant {model!r}; choose from {', '.join(VARIANTS)}")
    o_vals = _inflow_values(model, inflow, periods.window.days)
    days = ([init.s], [init.i], [init.r])
    clamp_events = 0
    cuts = periods.cuts()
    for idx, (beta, gamma) in enumerate(zip(params.beta, params.gamma), start=1):
        (clamps,) = _commit(model, [days], params, [beta], [gamma], [cuts], [o_vals], idx)
        if isinstance(clamps, StateError):
            raise clamps
        clamp_events += clamps
    return Trajectory(*days, clamp_events=clamp_events)


def write_trajectory_csv(traj: Trajectory, out: IO[str]) -> None:
    write_table(out, TRAJECTORY_HEADER, zip(range(len(traj)), traj.s, traj.i, traj.r))


def load_inflow(source: IO) -> InflowSeries:
    values = []
    for line, (raw_day, raw_value) in read_table(source, INFLOW_HEADER, "inflow CSV", say_got=False):
        try:
            day = int(raw_day)
            val = float(raw_value)
        except ValueError:
            raise ParseError(f"inflow CSV line {line}: malformed row") from None
        if day != len(values):
            raise ValidationError(f"inflow CSV line {line}: days must run 0,1,2,... got {day}")
        values.append(val)
    return InflowSeries(tuple(values))


def write_inflow_csv(inflow: InflowSeries, out: IO[str]) -> None:
    write_table(out, INFLOW_HEADER, enumerate(inflow.o))
