"""Discrete SIR variants: original, time-delayed, reinfection, and tourism inflow.

All variants advance through one array-valued forward-Euler kernel at a fixed
step of one day; a variant only changes which values feed it.  That keeps the
degenerate cases (tau=0, mu=0, epsilon=0) bit-for-bit equal to the simpler
models.  The kernel steps a batch of jobs, longest first, each from its own
committed day to its own last day: the tuner runs the (beta, gamma) grids of
many jobs in one call and commits their winners in another, ``simulate``
runs one job with one candidate, and float64 arithmetic is the same
elementwise at every batch size.  It keeps one state layout whether it
records every day or scores as it steps.  Both commit through ``_commit``,
the one place that says on which day a period's run ends.  No flow takes
more than its source compartment holds that day, so no compartment goes
negative and S + I + R moves only by rounding and, in tourism, by the inflow.
A state that stops being finite (a total past the float range) raises
StateError; scoring stops stepping the candidates that are dead for good.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

from .errors import ConfigError, ParseError, StateError, ValidationError, error_prefix
from .segment import PeriodSet
from .timeseries import _nonneg_column, read_table, write_table

VARIANTS = ("original", "delayed", "reinfect", "tourism")
DEFAULT_TAU1 = 5
DEFAULT_TAU2 = 14

INFLOW_HEADER = ("day", "o")
TRAJECTORY_HEADER = ("day", "s", "i", "r")
# Scoring drops dead columns once, after step 8 (on `fit-default` that saves 7.2 % of the
# step-days, 5.8 % after step 4), if that saves more than 3 full-width steps: its cost, measured.
_CHECK_STEP, _DROP_STEPS = 8, 3


def check_variant(model: str) -> None:
    """ConfigError unless ``model`` is one of VARIANTS; each entry point calls it first."""
    if model not in VARIANTS:
        raise ConfigError(f"unknown model variant {model!r}; choose from {', '.join(VARIANTS)}")


@dataclass(frozen=True)
class SirState:
    s: float
    i: float
    r: float

    def __post_init__(self) -> None:
        for name in ("s", "i", "r"):
            object.__setattr__(self, name, _nonneg_column((getattr(self, name),), name)[0])


@dataclass(frozen=True)
class Trajectory:
    """Daily S, I and R columns; day j is day j of the period window."""

    s: tuple[float, ...]
    i: tuple[float, ...]
    r: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.s:
            raise ValidationError("trajectory must hold at least one state")
        for name in ("s", "i", "r"):
            column = _nonneg_column(getattr(self, name), name)
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
            object.__setattr__(self, name, _nonneg_column(getattr(self, name), name))
        for name in ("mu", "epsilon"):
            object.__setattr__(self, name, _nonneg_column((getattr(self, name),), name)[0])
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


def _to_front(a, cols, rows, tmp):
    """``a[:, cols]`` for a's first ``rows`` rows, over the front of a's buffer: no new pages to fault in."""
    out = a.reshape(-1)[:len(a) * cols.size].reshape(len(a), *cols.shape)
    for row in range(rows):  # out's row r overlaps only a's rows up to r, so a's row r goes via tmp
        a.reshape(len(a), -1)[row].take(cols, out=tmp, mode="clip")  # "clip": into tmp unbuffered
        out[row] = tmp
    return out


def _euler_days(model, days, params: PiecewiseParams, beta, gamma, steps, o_vals, score=None):
    """Step a batch of jobs, job j from its last committed day for ``steps[j]`` days.

    This is the one forward-Euler step of every variant.  ``days`` holds each
    job's committed (s, i, r) float lists, m_j days long; ``beta`` and
    ``gamma`` are (jobs, candidates) arrays; ``o_vals`` holds each job's
    inflow (tourism only); ``params`` supplies the delays and the mu/epsilon
    rates.  Delayed reads before day 0 return day 0 (constant pre-history);
    ``original`` reads today.  Each flow is capped at its source: the
    per-capita infection rate beta * I(t - tau1) at 1, the removals at the I
    the day holds after its infections, and the reentries rate mu at 1, so a
    step moves at most all of a compartment and none goes negative.
    Row k of a job is its day m_j - 1 + k, so one lag index serves the batch.
    The jobs come longest first (``steps`` must not increase, or ValueError),
    so step k advances the jobs that take it and no job runs past its last
    day.  The state is today's S and R and a ring of the max(tau1, tau2) + 2
    I rows that a step reads and writes.  ``finite`` marks the candidates
    whose state is finite on their job's last day.

    Without ``score`` it returns (block, finite): each step copies its S, I
    and R into ``block``, (3, days, jobs, candidates).  With ``score``,
    (xc, fit, acc), it scores as it steps and returns (acc, finite): after
    step k, each job j with ``fit[k, j]`` adds ``xc[k, j] * log(I)`` into
    its row of ``acc``, so a zero or non-finite I there leaves ``acc``
    non-finite.  On a step where only some
    jobs have a fit row, the others add exactly 0.0.  A column is dead for good
    once its ``acc`` or its I is not finite (a zero I is not: a lagged variant
    can revive it).  After step _CHECK_STEP each job still running keeps as
    many columns as the one with the most live ones, padded with its own dead
    ones, and a dropped column reads False in ``finite``.
    """
    if any(a < b for a, b in zip(steps, steps[1:])):
        raise ValueError(f"steps must not increase, got {steps}")
    top, epsilon = max(steps), params.epsilon
    # A lag past a job's committed days plus its steps reads day 0 at any length.
    cap = 0 if model == "original" else top + max(len(i) for _, i, _ in days)
    tau1, tau2 = min(params.tau1, cap), min(params.tau2, cap)
    mu = min(params.mu, 1.0) if model == "reinfect" else 0.0
    reach = max(tau1, tau2)
    # I history right-aligned on each job's last day: row reach - d is day m_j - 1 - d, or day 0.
    hist = np.array([[i[0]] * (reach + 1 - len(i)) + i[-reach - 1:] for _, i, _ in days]).T[:, :, None]
    start = np.array([[seq[-1] for seq in job] for job in days]).T[:, :, None]
    shape, size = beta.shape, reach + 2
    ring, today = np.empty((size, *shape)), np.broadcast_to(start[::2], (2, *shape)).copy()
    ring[0] = start[1]
    today += 0.0  # a committed S or R of -0.0 steps as +0.0, so that no day records -0.0
    if score is None:  # every day of S, I and R, and nothing scored
        block = np.empty((3, top + 1, *shape))
        block[:, 0] = start
        n_fit = [[0] * len(steps)] * (top + 1)
    else:
        xc, fit, acc = score
        n_fit, skip = np.cumsum(fit, axis=1).tolist(), ~fit[:, :, None]  # n_fit[k][n - 1]: fit rows k in :n
    scratch, finite = np.empty((3, *shape)), np.zeros(shape, dtype=bool)
    stops, put = np.array(steps) % size, np.s_[:, :]  # put: where the stepped columns' results go

    def last_finite(lo, hi):  # jobs lo:hi have taken their last step
        return np.isfinite(today[:, lo:hi]).all(axis=0) & np.isfinite(ring[stops[lo:hi], range(lo, hi)])

    edges = sorted({0, *steps, min(_CHECK_STEP, top)})  # steps lo + 1 .. hi advance the jobs that reach hi
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # non-finite is checked below
        for lo, hi in zip(edges, edges[1:]):
            n = sum(step >= hi for step in steps)
            if lo == _CHECK_STEP and score is not None:
                live = np.isfinite(acc[:n]) & np.isfinite(ring[lo % size, :n])
                width = int(live.sum(axis=1).max())
                if (shape[1] - width) * sum(step - lo for step in steps[:n]) > _DROP_STEPS * n * shape[1]:
                    finite[n:] = last_finite(n, len(steps))
                    keep = np.argsort(~live, axis=1, kind="stable")[:, :width]  # live columns first
                    put, cols = (np.arange(n)[:, None], keep), keep + shape[1] * np.arange(n)[:, None]
                    beta, gamma, acc = beta.take(cols), gamma.take(cols), acc.take(cols)
                    tmp = scratch.reshape(-1)[:cols.size].reshape(cols.shape)
                    ring = _to_front(ring, cols, min(size, lo + 1), tmp)  # the rows that hold a day
                    today, scratch = _to_front(today, cols, 2, tmp), _to_front(scratch, cols, 0, tmp)
            b, g, h, i_rows, (s, r) = beta[:n], gamma[:n], hist[:, :n], ring[:, :n], today[:, :n]
            new_infections, removals, reentries = scratch[:, :n]
            for k in range(lo + 1, hi + 1):
                lag1, lag2 = k - 1 - tau1, k - 1 - tau2
                np.multiply(b, i_rows[lag1 % size] if lag1 >= 0 else h[reach + lag1], out=new_infections)
                np.minimum(new_infections, 1.0, out=new_infections)
                new_infections *= s
                np.multiply(g, i_rows[lag2 % size] if lag2 >= 0 else h[reach + lag2], out=removals)
                if mu:
                    np.multiply(mu, r, out=reentries)
                i_k = i_rows[k % size]
                s -= new_infections
                np.add(i_rows[(k - 1) % size], new_infections, out=i_k)
                np.minimum(removals, i_k, out=removals)
                i_k -= removals
                r += removals
                if mu:
                    s += reentries
                    r -= reentries
                if model == "tourism":
                    s += epsilon * np.array([[o[len(i) + k - 2]] for (_, i, _), o in zip(days, o_vals[:n])])
                if score is None:
                    block[:, k, :n] = s, i_k, r
                if not n_fit[k][n - 1]:
                    continue
                np.log(i_k, out=new_infections)
                if n_fit[k][n - 1] < n:  # whatever their I, the jobs without a fit row add 0.0
                    np.copyto(new_infections, 0.0, where=skip[k, :n])
                new_infections *= xc[k, :n]
                acc[:n] += new_infections
    finite[put] = last_finite(0, today.shape[1])
    if score is not None:
        score[2][put] = acc
        return score[2], finite
    return block, finite


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
    kernel with one column per job; the jobs' periods must not grow along
    the batch (the kernel takes its jobs longest first).  Returns, for each
    job, None or the StateError naming the model, the first bad day and the
    period for a job whose state stopped being finite.
    """
    starts = [len(job[0]) for job in days]
    steps = [min(c[period] + 1, c[-1]) - start for start, c in zip(starts, cuts)]
    beta, gamma = np.array(beta)[:, None], np.array(gamma)[:, None]
    block, finite = _euler_days(model, days, params, beta, gamma, steps, o_vals)
    errors = [None] * len(days)
    for j, (job, start, n) in enumerate(zip(days, starts, steps)):
        for seq, col in zip(job, block[:, 1:n + 1, j, 0]):
            seq.extend(col.tolist())
        if not finite[j, 0]:
            day = start + int(np.flatnonzero(~np.isfinite(block[:, 1:n + 1, j, 0]).all(axis=0))[0])
            errors[j] = StateError(
                f"{model}: state is no longer finite on day {day} (period {period}); "
                "the population is too large for the float range"
            )
    return errors


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
    check_variant(model)
    o_vals = _inflow_values(model, inflow, periods.window.days)
    days = ([init.s], [init.i], [init.r])
    cuts = periods.cuts()
    for idx, (beta, gamma) in enumerate(zip(params.beta, params.gamma), start=1):
        (error,) = _commit(model, [days], params, [beta], [gamma], [cuts], [o_vals], idx)
        if error is not None:
            raise error
    return Trajectory(*days)


def write_trajectory_csv(traj: Trajectory, out: IO[str]) -> None:
    write_table(out, TRAJECTORY_HEADER, zip(range(len(traj)), traj.s, traj.i, traj.r))


def load_inflow(source: IO) -> InflowSeries:
    values = []
    rows, where = read_table(source, INFLOW_HEADER, "inflow CSV")
    for raw_day, raw_value in rows:
        try:
            day = int(raw_day)
            val = float(raw_value)
        except ValueError:
            raise ParseError(f"{where()}: malformed row") from None
        if day != len(values):
            raise ValidationError(f"{where()}: days must run 0,1,2,... got {day}")
        with error_prefix(where()):
            values += _nonneg_column((val,), "inflow values")
    return InflowSeries(tuple(values))


def write_inflow_csv(inflow: InflowSeries, out: IO[str]) -> None:
    write_table(out, INFLOW_HEADER, enumerate(inflow.o))
