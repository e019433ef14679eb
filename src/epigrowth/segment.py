"""Splitting a case series into five contiguous periods of near-constant log growth.

Boundaries start at anchor dates and are refined by coordinate ascent on the
length-weighted mean R-squared of the per-period log-linear fits.  The search
box is fixed at +-search_radius days around each initial anchor.  Sweeps
repeat until one moves no boundary, and each candidate period is fitted once
per metro, however many sweeps try it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import date, timedelta
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigError,
    InsufficientDataError,
    ParseError,
    StateError,
    ValidationError,
)
from .regress import SimpleFit, _line_fit
from .timeseries import CaseSeries, DateInterval, read_table, to_log_series

NUM_PERIODS = 5
DEFAULT_WINDOW = DateInterval(date(2020, 3, 1), date(2020, 6, 30))
DEFAULT_ANNOUNCEMENT = date(2020, 3, 29)
DEFAULT_ANCHOR_OFFSETS = (3, 22, 42, 64)
DEFAULT_SEARCH_RADIUS = 14
DEFAULT_MIN_PERIOD = 7

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

    def fitted(self) -> bool:
        return all(p.fit is not None for p in self.periods)


@dataclass(frozen=True)
class ProtocolCall:
    """Protocol-followed assessment: the qualifying period start, or None."""

    date: date | None
    slopes: tuple[float, ...]
    note: str


def default_anchors(
    announcement: date = DEFAULT_ANNOUNCEMENT,
    offsets: Sequence[int] = DEFAULT_ANCHOR_OFFSETS,
) -> tuple[date, ...]:
    """Boundary dates derived from the protocol announcement plus day offsets."""
    if len(offsets) != NUM_PERIODS - 1:
        raise ConfigError(f"need {NUM_PERIODS - 1} anchor offsets, got {len(offsets)}")
    return tuple(announcement + timedelta(days=int(o)) for o in offsets)


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

    The one fit behind every per-period growth rate; each stretch is fitted once.
    """

    def __init__(self, series: CaseSeries, window: DateInterval):
        self.x, self.y = to_log_series(series, window)  # raises if no positive counts
        # days: each point's window-relative day; before[d]: points ahead of day d <= window.days
        self.days = self.x.astype(int) - (window.start - series.start_date).days
        self.before = np.searchsorted(self.days, np.arange(window.days + 1)).tolist()
        self.window_days = window.days
        self._fits: dict[tuple[int, int], tuple[float, float, float, int] | None] = {}

    def segment_fit(self, lo: int, hi: int) -> tuple[float, float, float, int] | None:
        """(slope, intercept, r2, n) over window-relative days [lo, hi), or None if unfittable.

        Each (lo, hi) is fitted on first use and read back from then on.
        """
        try:
            return self._fits[lo, hi]
        except KeyError:
            pass
        a, b = self.before[lo], self.before[hi]
        n = b - a
        # distinct days, so two points always spread x
        fit = None if n < 2 else (*_line_fit(self.x[a:b], self.y[a:b]), n)
        self._fits[lo, hi] = fit
        return fit

    def objective(self, bounds: Sequence[int]) -> float:
        """Length-weighted mean R2 for boundaries ``bounds`` (window-relative start days)."""
        cuts = [0, *bounds, self.window_days]
        total = 0.0
        for i in range(NUM_PERIODS):
            lo, hi = cuts[i], cuts[i + 1]
            fit = self.segment_fit(lo, hi)
            if fit is None:
                return -math.inf
            total += fit[2] * (hi - lo)
        return total / self.window_days


def optimize_boundaries(
    series: CaseSeries,
    initial: PeriodSet,
    search_radius: int = DEFAULT_SEARCH_RADIUS,
    min_period_length: int = DEFAULT_MIN_PERIOD,
) -> PeriodSet:
    """Coordinate-ascent refinement of the four period boundaries.

    Each boundary moves within +-search_radius days of its initial position,
    respecting the window and ``min_period_length``; sweeps repeat until no
    boundary moves.  Objective ties go to the earliest date.  Every candidate
    period is fitted once per call, however many sweeps try it.

    The sweeps end.  Boundaries stay inside their boxes.  When both periods
    next to a boundary are at least ``min_period_length`` long, its current
    position is among those tried, so moving it raises the objective, or
    keeps it equal and moves the boundary earlier.  Any other move lengthens
    a period the anchors left too short and shortens none below the minimum.
    So (-short periods, objective, -sum(boundaries)) rises strictly with each
    move, and no configuration of the finite box repeats.
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
    init = [(p.start - window.start).days for p in initial.periods[1:]]
    lo_box = [b - search_radius for b in init]
    hi_box = [b + search_radius for b in init]

    bounds = list(init)
    if not math.isfinite(fits.objective(bounds)):
        raise InsufficientDataError(
            f"{series.region}: initial periods leave a segment with fewer than 2 positive counts"
        )
    moved = True
    while moved:
        moved = False
        for j in range(NUM_PERIODS - 1):
            left = bounds[j - 1] if j > 0 else 0
            right = bounds[j + 1] if j < NUM_PERIODS - 2 else fits.window_days
            lo = max(lo_box[j], left + min_period_length)
            hi = min(hi_box[j], right - min_period_length)
            best_b = bounds[j]
            best_obj = -math.inf
            for b in range(lo, hi + 1):
                trial = bounds.copy()
                trial[j] = b
                obj = fits.objective(trial)
                if obj > best_obj:
                    best_obj, best_b = obj, b
            if math.isfinite(best_obj) and best_b != bounds[j]:
                bounds[j] = best_b
                moved = True

    cuts = [0, *bounds, fits.window_days]
    periods = []
    for i in range(NUM_PERIODS):
        start = window.start + timedelta(days=cuts[i])
        end = window.start + timedelta(days=cuts[i + 1] - 1)
        seg = fits.segment_fit(cuts[i], cuts[i + 1])
        if seg is None:
            raise InsufficientDataError(
                f"{series.region}: optimized period {i + 1} has fewer than 2 positive counts"
            )
        periods.append(Period(i + 1, start, end, SimpleFit(*seg)))
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
            return ProtocolCall(p.start, slopes, f"period {p.index} slope fell below period {i}")
    return ProtocolCall(
        None,
        slopes,
        f"no period starting on/after {announcement} shows a slope drop; slopes="
        + ",".join(f"{s:.6g}" for s in slopes),
    )


@dataclass(frozen=True)
class PeriodRow:
    """One periods-CSV row."""

    metro: str
    period_index: int
    start: date
    end: date
    slope: float
    intercept: float
    r2: float


def rows_from_period_sets(period_sets: Iterable[PeriodSet]) -> list[PeriodRow]:
    rows = []
    for ps in sorted(period_sets, key=lambda ps: ps.metro):
        if not ps.fitted():
            raise StateError(f"{ps.metro}: cannot emit unfitted periods")
        for p in ps.periods:
            rows.append(
                PeriodRow(ps.metro, p.index, p.start, p.end, p.fit.slope, p.fit.intercept, p.fit.r_squared)
            )
    return rows


def write_periods_csv(rows: Iterable[PeriodRow], out: IO[str]) -> None:
    out.write(",".join(PERIODS_HEADER) + "\n")
    for r in rows:
        out.write(
            f"{r.metro},{r.period_index},{r.start.isoformat()},{r.end.isoformat()},"
            f"{r.slope!r},{r.intercept!r},{r.r2!r}\n"
        )


def load_periods_csv(source: IO) -> list[PeriodRow]:
    rows = []
    for line, (metro, index, start, end, *fit) in read_table(
        source, PERIODS_HEADER, "periods CSV", say_got=False
    ):
        try:
            days = map(date.fromisoformat, (start, end))
            rows.append(PeriodRow(metro, int(index), *days, *map(float, fit)))
        except ValueError:
            raise ParseError(f"periods CSV line {line}: malformed row") from None
    return rows


def period_sets_from_rows(rows: Iterable[PeriodRow]) -> dict[str, PeriodSet]:
    """Group loaded rows into PeriodSets (boundaries only; fits left unset)."""
    by_metro: dict[str, list[PeriodRow]] = {}
    for r in rows:
        by_metro.setdefault(r.metro, []).append(r)
    out = {}
    for metro, metro_rows in sorted(by_metro.items()):
        metro_rows.sort(key=lambda r: r.period_index)
        out[metro] = PeriodSet(
            metro=metro,
            periods=tuple(Period(r.period_index, r.start, r.end) for r in metro_rows),
        )
    return out
