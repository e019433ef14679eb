"""Discrete SIR variants: original, time-delayed, reinfection, and tourism inflow.

All variants advance through one array-valued forward-Euler kernel at a fixed
step of one day; a variant only changes which values feed it.  That keeps the
degenerate cases (tau=0, mu=0, epsilon=0) bit-for-bit equal to the simpler
models.  The tuner runs the kernel on a whole (beta, gamma) grid at once;
``simulate`` runs it on a one-candidate batch, and float64 arithmetic is the
same elementwise at every batch size.  Negative values are clamped to zero and
counted; a clamp can create population, since the flow that overdrew a
compartment still reaches the next one in full.  A state that stops being
finite raises StateError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .errors import ConfigError, ParseError, StateError, ValidationError
from .segment import PeriodSet
from .timeseries import read_table, write_table

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
            column = tuple(_check_nonneg(name, v) for v in getattr(self, name))
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
        vals = tuple(float(v) for v in self.o)
        for v in vals:
            if not math.isfinite(v) or v < 0:
                raise ValidationError(f"inflow values must be finite and >= 0, got {v}")
        object.__setattr__(self, "o", vals)

    def __len__(self) -> int:
        return len(self.o)


def _euler_days(model, days, params: PiecewiseParams, beta, gamma, until, o_vals, record=False):
    """Step a batch of candidates from the last committed day to day ``until - 1``.

    This is the one forward-Euler step of every variant.  ``days`` holds the
    committed (s, i, r) float lists, m days long; ``beta`` and ``gamma`` are
    arrays with one entry per candidate.  Delayed reads before day 0 return
    day 0 (constant pre-history); ``original`` reads today.  Negative values
    are clamped to zero.  Returns (block, clamps, finite).  ``block`` is
    (days, candidates): row k holds the I of day m - 1 + k for every
    candidate, so row 0 is the last committed day.  With ``record`` it is
    (3, days, candidates), holding S, I and R, and ``clamps`` counts the
    negative raw values over all candidates; without, S and R are kept for
    the current day only and ``clamps`` is 0.  ``finite`` marks the
    candidates whose state stayed finite: a non-finite value never leaves the
    state again, so the last day decides.  ``params`` supplies the delays and
    the mu/epsilon rates; its per-period rates are not read.
    """
    s_days, i_days, r_days = days
    tau1, tau2, epsilon = params.tau1, params.tau2, params.epsilon
    if model == "original":
        tau1 = tau2 = 0
    # With mu = 0 the reentries term is +0.0, and adding it changes no clamped value.
    mu = params.mu if model == "reinfect" else 0.0
    first = len(i_days) - 1
    steps = until - len(i_days)
    n = len(beta)
    if record:
        block = np.empty((3, steps + 1, n))
        block[:, 0] = np.array([s_days[first], i_days[first], r_days[first]])[:, None]
        s_block, i_block, r_block = block
        s, r = s_block[0], r_block[0]
        raw = np.empty((3, steps, n))
    else:
        block = i_block = np.empty((steps + 1, n))
        i_block[0] = i_days[first]
        s, r = np.full(n, s_days[first]), np.full(n, r_days[first])
    new_infections, removals, reentries = np.empty(n), np.empty(n), np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite is checked below
        for k in range(steps):
            t = first + k
            lag1, lag2 = max(t - tau1, 0), max(t - tau2, 0)
            np.multiply(beta, i_block[lag1 - first] if lag1 >= first else i_days[lag1], out=new_infections)
            new_infections *= s
            np.multiply(gamma, i_block[lag2 - first] if lag2 >= first else i_days[lag2], out=removals)
            if mu:
                np.multiply(mu, r, out=reentries)
            s_new, i_new, r_new = raw[:, k] if record else (s, i_block[k + 1], r)
            np.subtract(s, new_infections, out=s_new)
            np.add(i_block[k], new_infections, out=i_new)
            i_new -= removals
            np.add(r, removals, out=r_new)
            if mu:
                s_new += reentries
                r_new -= reentries
            if model == "tourism":
                s_new += epsilon * o_vals[t]
            if record:
                s, r = s_block[k + 1], r_block[k + 1]
            np.maximum(s_new, 0.0, out=s)
            np.maximum(i_new, 0.0, out=i_block[k + 1])
            np.maximum(r_new, 0.0, out=r)
    clamps = int(np.count_nonzero(raw < 0.0)) if record else 0
    return block, clamps, np.isfinite(s) & np.isfinite(i_block[-1]) & np.isfinite(r)


def _inflow_values(model: str, inflow: InflowSeries | None, horizon: int):
    """Daily inflow for the tourism variant (None for the others), checked for length."""
    if model != "tourism":
        return None
    if inflow is None:
        raise ConfigError("tourism variant requires an inflow series")
    if len(inflow) < horizon - 1:
        raise ConfigError(f"inflow series covers {len(inflow)} days, need {horizon - 1} steps")
    return inflow.o


def _commit(model, days, params: PiecewiseParams, beta: float, gamma: float, until: int,
            o_vals, period: int) -> int:
    """Extend the committed float day lists to ``until`` days at (beta, gamma); returns clamps.

    Runs the step kernel as a one-candidate batch.  A state that stops being
    finite raises StateError naming the model, the first bad day and the period.
    """
    start = len(days[0])
    block, clamps, finite = _euler_days(
        model, days, params, np.array([beta]), np.array([gamma]), until, o_vals, record=True
    )
    for seq, rows in zip(days, block[:, 1:, 0]):
        seq.extend(rows.tolist())
    if not finite.all():
        day = start + int(np.flatnonzero(~np.isfinite(block[:, 1:, 0]).all(axis=0))[0])
        raise StateError(
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
    horizon = periods.window.days
    o_vals = _inflow_values(model, inflow, horizon)
    days = ([init.s], [init.i], [init.r])
    clamp_events = 0
    cut = 0
    rates = zip(periods.periods, params.beta, params.gamma)
    for idx, (period, beta, gamma) in enumerate(rates, start=1):
        cut += period.length
        clamp_events += _commit(model, days, params, beta, gamma, min(cut + 1, horizon), o_vals, idx)
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
