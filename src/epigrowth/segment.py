"""Splitting a case series into five contiguous periods of near-constant log growth.

Boundaries start at anchor dates and are placed by an exact dynamic programme
(Bai & Perron 2003) on the length-weighted mean R-squared of the per-period
log-linear fits.  Each boundary's search box is fixed at +-search_radius days
around its anchor, clipped to the window.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from datetime import date, timedelta
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    InsufficientDataError,
    ParseError,
    StateError,
    ValidationError,
    error_prefix,
)
from .regress import SimpleFit, _line_fit
from .timeseries import CaseSeries, DateInterval, parse_date, read_table, to_log_series, write_table

NUM_PERIODS = 5
DEFAULT_WINDOW = DateInterval(date(2020, 3, 1), date(2020, 6, 30))
DEFAULT_ANNOUNCEMENT = date(2020, 3, 29)
DEFAULT_ANCHOR_OFFSETS = (3, 22, 42, 64)
DEFAULT_SEARCH_RADIUS = 14
DEFAULT_MIN_PERIOD = 7
_TIE_TOL = 1e-9  # on the summed R2 * days, below which boundary choices tie

PERIODS_HEADER = ("metro", "period_index", "start", "end", "slope", "intercept", "r2")


@dataclass(frozen=True)
class Period:
    """One contiguous stretch of days, end-inclusive; ``fit`` is set after optimization."""

    index: int
    start: date
    end: date
    fit: SimpleFit | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.index <= NUM_PERIODS:
            raise ValidationError(f"period index must be 1..{NUM_PERIODS}, got {self.index}")
        if self.end < self.start:
            raise ValidationError(f"period {self.index}: end {self.end} precedes start {self.start}")

    @property
    def length(self) -> int:
        return (self.end - self.start).days + 1

    @property
    def interval(self) -> DateInterval:
        return DateInterval(self.start, self.end)


@dataclass(frozen=True)
class PeriodSet:
    """Exactly five contiguous periods covering one analysis window."""

    metro: str
    periods: tuple[Period, ...]

    def __post_init__(self) -> None:
        periods = tuple(self.periods)
        if len(periods) != NUM_PERIODS:
            raise ValidationError(f"expected {NUM_PERIODS} periods, got {len(periods)}")
        for i, p in enumerate(periods):
            if p.index != i + 1:
                raise ValidationError(f"period indexes must run 1..{NUM_PERIODS} in order")
            if i > 0 and p.start != periods[i - 1].end + timedelta(days=1):
                raise ValidationError(
                    f"period {p.index} starts {p.start}, expected the day after {periods[i - 1].end}"
                )
        object.__setattr__(self, "periods", periods)

    @property
    def window(self) -> DateInterval:
        return DateInterval(self.periods[0].start, self.periods[-1].end)

    def lengths(self) -> tuple[int, ...]:
        return tuple(p.length for p in self.periods)

    def cuts(self) -> list[int]:
        """Window-relative first day of each period, then the window length."""
        return [0, *itertools.accumulate(self.lengths())]

    def fitted(self) -> bool:
        return all(p.fit is not None for p in self.periods)


@dataclass(frozen=True)
class ProtocolCall:
    """Protocol-followed assessment: the qualifying period start, or None."""

    date: date | None
    note: str


def default_anchors(announcement: date = DEFAULT_ANNOUNCEMENT) -> tuple[date, ...]:
    """Boundary dates: the protocol announcement plus DEFAULT_ANCHOR_OFFSETS days."""
    return tuple(announcement + timedelta(days=o) for o in DEFAULT_ANCHOR_OFFSETS)


def initial_periods(window: DateInterval, anchors: Sequence[date], metro: str = "") -> PeriodSet:
    """Periods cut at the four anchor dates; each anchor starts the next period."""
    anchors = tuple(anchors)
    if len(anchors) != NUM_PERIODS - 1:
        raise ValidationError(f"need {NUM_PERIODS - 1} anchors, got {len(anchors)}")
    prev = window.start
    for a in anchors:
        if a <= prev:
            raise ValidationError(
                f"anchor {a} must fall strictly after {prev} (anchors ascending, inside the window)"
            )
        prev = a
    if anchors[-1] > window.end:
        raise ValidationError(f"anchor {anchors[-1]} falls outside window ending {window.end}")
    starts = (window.start,) + anchors
    ends = tuple(a - timedelta(days=1) for a in anchors) + (window.end,)
    return PeriodSet(
        metro=metro,
        periods=tuple(Period(i + 1, s, e) for i, (s, e) in enumerate(zip(starts, ends))),
    )


class _WindowFits:
    """Per-stretch OLS of log count on day over the positive-count days of one window.

    The one fit behind every per-period growth rate.
    """

    def __init__(self, series: CaseSeries, window: DateInterval):
        self.x, self.y = to_log_series(series, window)  # raises if no positive counts
        # days: each point's window-relative day; before[d]: points ahead of day d <= window.days
        self.days = self.x.astype(int) - (window.start - series.start_date).days
        self.before = np.searchsorted(self.days, np.arange(window.days + 1)).tolist()

    def segment_fit(self, lo: int, hi: int) -> tuple[float, float, float, int] | None:
        """(slope, intercept, r2, n) over window-relative days [lo, hi), or None if unfittable."""
        a, b = self.before[lo], self.before[hi]
        n = b - a
        # distinct days, so two points always spread x
        return None if n < 2 else (*_line_fit(self.x[a:b], self.y[a:b]), n)

    def scores(self, starts: np.ndarray, ends: np.ndarray, min_days: int) -> np.ndarray:
        """R2 * days of every stretch [starts[i], ends[j]), or -inf where it is unfittable.

        A stretch is unfittable when it is shorter than ``min_days`` or holds
        fewer than 2 points.  Each row sums its stretches from their shared
        first point, with x and y taken relative to that point, so the sums
        stay as small as the stretch and R2 matches the two-pass ``_line_fit``
        to rounding.  A stretch whose y never leaves its first value scores
        R2 = 1, as ``_line_fit`` does.
        """
        before = np.asarray(self.before)
        n = before[ends] - before[starts][:, None]
        days = ends - starts[:, None]
        ok = (n >= 2) & (days >= min_days)
        width = max(n.max(), 1)
        first = np.minimum(before[starts], len(self.x) - 1)
        take = np.minimum(first[:, None] + np.arange(width), len(self.x) - 1)
        dx, dy = self.x[take] - self.x[first, None], self.y[take] - self.y[first, None]
        sums = np.cumsum([dx, dy, dx * dx, dy * dy, dx * dy], axis=2).reshape(5, -1)
        sx, sy, sxx, syy, sxy = sums[:, np.arange(len(starts))[:, None] * width + np.maximum(n - 1, 0)]
        m = np.where(ok, n, 1)
        var = (sxx - sx * sx / m) * (syy - sy * sy / m)
        cov = sxy - sx * sy / m
        r2 = np.divide(cov * cov, var, out=np.ones_like(var), where=ok & (var > 0))
        return np.where(ok, np.minimum(r2, 1.0) * days, -np.inf)


def optimize_boundaries(
    series: CaseSeries,
    initial: PeriodSet,
    search_radius: int = DEFAULT_SEARCH_RADIUS,
    min_period_length: int = DEFAULT_MIN_PERIOD,
) -> PeriodSet:
    """The four period boundaries that maximise the objective, by dynamic programming.

    Boundary j may sit on any day within +-search_radius of its initial
    position that leaves the first and last periods a day.  Period k must be
    at least min(``min_period_length``, its initial length) days long, so the
    initial periods always qualify, and must hold 2 positive counts.  Over
    all such placements the summed R2 * days of the five periods is
    maximised exactly: suffix optima are computed backwards, then a forward
    walk takes the earliest boundary whose running total plus suffix optimum
    is within _TIE_TOL (1e-9) of the optimum.  So near-ties, such as R2 = 1
    stretches that rounding tells apart, go to the lexicographically earliest
    boundaries.  The five chosen periods are refitted with ``_line_fit``.
    """
    if search_radius < 0:
        raise ConfigError(f"search radius must be >= 0, got {search_radius}")
    if min_period_length < 1:
        raise ConfigError(f"min period length must be >= 1, got {min_period_length}")
    window = initial.window
    if window.days < NUM_PERIODS * min_period_length:
        raise ConfigError(
            f"window of {window.days} days cannot hold {NUM_PERIODS} periods "
            f"of at least {min_period_length} days"
        )
    fits = _WindowFits(series, window)
    cuts = initial.cuts()
    if any(fits.before[hi] - fits.before[lo] < 2 for lo, hi in zip(cuts, cuts[1:])):
        raise InsufficientDataError(
            f"{series.region}: initial periods leave a segment with fewer than 2 positive counts"
        )
    # candidate first days of each period, the boxes clipped to the window first
    starts = [np.array([0])]
    starts += [np.arange(max(b - search_radius, 1), min(b + search_radius, window.days - 1) + 1)
               for b in cuts[1:-1]]
    starts.append(np.array([window.days]))
    scores = [fits.scores(starts[k], starts[k + 1], min(min_period_length, length))
              for k, length in enumerate(initial.lengths())]
    suffix = [np.zeros(1)]  # built up to suffix[k][i]: best total of periods k.. from starts[k][i]
    for score in reversed(scores):
        suffix.insert(0, (score + suffix[0]).max(axis=1))
    best, total, i = suffix[0][0], 0.0, 0
    for k in range(NUM_PERIODS - 1):
        nxt = int(np.argmax(total + scores[k][i] + suffix[k + 1] >= best - _TIE_TOL))
        total += scores[k][i, nxt]
        i = nxt
        cuts[k + 1] = int(starts[k + 1][i])

    # The initial placement lies in every box and scores finitely, so the optimum is finite and
    # every chosen stretch (an unfittable one scores -inf) holds 2 points: each period has a fit.
    periods = []
    for i in range(NUM_PERIODS):
        start = window.start + timedelta(days=cuts[i])
        end = window.start + timedelta(days=cuts[i + 1] - 1)
        periods.append(Period(i + 1, start, end, SimpleFit(*fits.segment_fit(cuts[i], cuts[i + 1]))))
    return PeriodSet(metro=series.region, periods=tuple(periods))


def protocol_followed_date(periods: PeriodSet, announcement: date = DEFAULT_ANNOUNCEMENT) -> ProtocolCall:
    """Start of the first period on/after ``announcement`` with a slope drop.

    Qualifying period: begins on or after the announcement and its fitted
    slope is strictly below the preceding period's.  Returns date None with an
    explanatory note when nothing qualifies.
    """
    if not periods.fitted():
        raise StateError(f"{periods.metro}: periods must be fitted before the protocol check")
    slopes = tuple(p.fit.slope for p in periods.periods)
    for i in range(1, NUM_PERIODS):
        p = periods.periods[i]
        if p.start >= announcement and slopes[i] < slopes[i - 1]:
            return ProtocolCall(p.start, f"period {p.index} slope fell below period {i}")
    return ProtocolCall(
        None,
        f"no period starting on/after {announcement} shows a slope drop; slopes="
        + ",".join(f"{s:.6g}" for s in slopes),
    )


def write_periods_csv(period_sets: Iterable[PeriodSet], out: IO[str]) -> None:
    """One row per period of each fitted set, metros sorted; floats in shortest round-trip repr."""
    rows = []
    for ps in sorted(period_sets, key=lambda ps: ps.metro):
        if not ps.fitted():
            raise StateError(f"{ps.metro}: cannot emit unfitted periods")
        rows.extend(
            (ps.metro, p.index, p.start, p.end, p.fit.slope, p.fit.intercept, p.fit.r_squared)
            for p in ps.periods
        )
    write_table(out, PERIODS_HEADER, rows)


def load_periods_csv(source: IO) -> dict[str, PeriodSet]:
    """Periods CSV -> {metro: PeriodSet}, metros sorted; boundaries only, fits left unset.

    Every row, slope, intercept and r2 included, is parsed before any set is built,
    so a malformed row is reported ahead of an incomplete metro.  Each metro's
    rows may come in any order; they are sorted by period index.
    """
    by_metro: dict[str, list[tuple[int, date, date]]] = {}
    rows, where = read_table(source, PERIODS_HEADER, "periods CSV")
    for metro, index, start, end, *fit in rows:
        try:
            row = (int(index), *map(parse_date, (start, end)), *map(float, fit))
        except ValueError:
            raise ParseError(f"{where()}: malformed row") from None
        by_metro.setdefault(metro, []).append(row[:3])  # the fit columns are checked, not kept
    period_sets = {}
    for metro, bounds in sorted(by_metro.items()):
        with error_prefix(f"periods CSV: {metro}"):
            periods = tuple(Period(*r) for r in sorted(bounds, key=lambda r: r[0]))
            period_sets[metro] = PeriodSet(metro, periods)
    return period_sets
