"""Demographic and weather correlation studies over fitted growth rates.

The demographic study regresses one response per metro (its length-weighted
average growth rate) on each demographic group's subcategory percentages.
The weather studies regress day-over-day log-count changes on categorical
weather within each metro/period cell, with weather read on the first day of
each pair.  One pass over the cells fills all three weather reports, and each
cell's dummy regression is solved in the closed form of a one-way ANOVA.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Mapping, Sequence

import numpy as np

from .errors import ParseError, ValidationError
from .fit import weighted_mean
from .regress import _r_squared, bucket_temperature, fit_multi, student_t_sf
from .segment import Period, PeriodSet
from .timeseries import CaseSeries, parse_date, read_table, write_table

NA_RANK = "rank-deficient"
NA_SAMPLES = "insufficient-samples"
WEATHER_TYPES = ("cloudy", "foggy", "rainy", "snowy", "sunny")
_WEATHER_KINDS = {kind: kind for kind in WEATHER_TYPES}  # so every row shares one str per type
WEATHER_MODES = ("type", "high-temp", "low-temp")
DEMOGRAPHICS_HEADER = ("metro", "group", "subcategory", "value")
WEATHER_HEADER = ("metro", "date", "type", "high", "low")
GROUP_REPORT_HEADER = ("group", "subcategory", "p_value", "group_r2")
WEATHER_REPORT_HEADER = ("metro", "P1", "P2", "P3", "P4", "P5")


@dataclass(frozen=True)
class ReportCell:
    """One study cell: (group, subcategory) or (metro, period) keyed."""

    key: tuple[str, str]
    p_value: float | None
    r_squared: float | None
    n: int
    na_reason: str | None = None

    def __post_init__(self) -> None:
        if self.na_reason not in (None, NA_RANK, NA_SAMPLES):
            raise ValidationError(f"unknown na_reason {self.na_reason!r}")
        if (self.p_value is None) != (self.na_reason is not None):
            raise ValidationError("p_value must be absent exactly when na_reason is set")
        if self.n < 0:
            raise ValidationError("cell sample count must be >= 0")


@dataclass(frozen=True)
class GroupResult:
    group: str
    r_squared: float | None
    n: int
    na_reason: str | None = None

    def __post_init__(self) -> None:
        if self.na_reason not in (None, NA_RANK, NA_SAMPLES):
            raise ValidationError(f"unknown na_reason {self.na_reason!r}")
        if (self.r_squared is None) != (self.na_reason is not None):
            raise ValidationError("r_squared must be absent exactly when na_reason is set")


@dataclass(frozen=True)
class CorrelationReport:
    study: str
    cells: tuple[ReportCell, ...]
    groups: tuple[GroupResult, ...] = ()


def subcategories(per_group: Mapping[str, Mapping[str, float]]) -> list[str]:
    """Every subcategory of a demographic group's metro -> subcategory -> value table, sorted."""
    return sorted({cat for per_metro in per_group.values() for cat in per_metro})


def complete_metros(per_group: Mapping[str, Mapping[str, float]]) -> list[str]:
    """The metros, sorted, that carry a value for every subcategory of their group."""
    cats = set(subcategories(per_group))
    return sorted(m for m, vals in per_group.items() if cats <= set(vals))


def weighted_avg_growth(rates: Sequence[float | None], periods: PeriodSet) -> float:
    """Length-weighted mean growth rate across the periods."""
    for idx, k in enumerate(rates, start=1):
        if k is None:
            raise ValidationError(f"period {idx} has no growth rate")
    return weighted_mean(rates, periods.lengths())


def daily_log_growth(series: CaseSeries, period: Period) -> list[tuple[date, float]]:
    """(day, log c(day+1) - log c(day)) pairs with both days positive and inside the period.

    Only recorded days count: the period is clipped to the series range.
    """
    first, counts = series.within(period.interval)
    logs = [math.log(c) if c > 0 else None for c in counts]
    start = series.start_date + timedelta(days=first)
    return [
        (start + timedelta(days=k), b - a)
        for k, (a, b) in enumerate(zip(logs, logs[1:]))
        if a is not None and b is not None
    ]


def demographic_study(demo: Mapping[str, Mapping[str, Mapping[str, float]]],
                      response: Mapping[str, float]) -> CorrelationReport:
    """Per-group OLS of metro responses on subcategory percentages.

    Groups with fewer complete metros than predictors + 2 are reported NA
    rather than fitted; unidentifiable subcategory columns surface as
    rank-deficient cells.
    """
    cells: list[ReportCell] = []
    groups: list[GroupResult] = []
    for group, per_group in sorted(demo.items()):
        subcats = subcategories(per_group)
        metros = [m for m in complete_metros(per_group) if m in response]
        n = len(metros)
        if n < len(subcats) + 2:
            groups.append(GroupResult(group, None, n, NA_SAMPLES))
            cells.extend(ReportCell((group, sc), None, None, n, NA_SAMPLES) for sc in subcats)
            continue
        design = np.array([[per_group[m][sc] for sc in subcats] for m in metros])
        y = np.array([response[m] for m in metros])
        fit = fit_multi(design, y)
        group_na = None if fit.r_squared is not None else NA_RANK
        groups.append(GroupResult(group, fit.r_squared, n, group_na))
        for j, sc in enumerate(subcats):
            pv = fit.p_values[j]
            cells.append(ReportCell((group, sc), pv, fit.r_squared, n, None if pv is not None else NA_RANK))
    return CorrelationReport("demographic", tuple(cells), tuple(groups))


def _weather_cell(key: tuple[str, str], labels: list[str], y: list[float]) -> ReportCell:
    """One cell's OLS of y on an intercept plus the dummies of ``labels``, or its NA reason.

    That design is complete and full rank, so its fit is the group means (one-way
    ANOVA): dummy j's coefficient is mean_j - mean_ref, with standard error
    sqrt(s2 * (1/n_j + 1/n_ref)), where ref is the first level in sorted order.
    The smallest dummy p-value is the t tail of the largest |t|.
    """
    n = len(y)
    groups: dict[str, list[float]] = {}
    for label, value in zip(labels, y):
        groups.setdefault(label, []).append(value)
    if n < 2 or n <= len(groups):  # a single level with 2+ rows passes on to NA_RANK
        return ReportCell(key, None, None, n, NA_SAMPLES)
    if len(groups) < 2:
        return ReportCell(key, None, None, n, NA_RANK)
    dof = n - len(groups)
    means = {level: math.fsum(values) / len(values) for level, values in groups.items()}
    ss_res = math.fsum((value - means[label]) ** 2 for label, value in zip(labels, y))
    mean = math.fsum(y) / n
    ss_tot = math.fsum((value - mean) ** 2 for value in y)
    constant = y.count(y[0]) == n
    ref, *others = sorted(groups)
    t = 0.0  # a constant y gives every coefficient t = 0
    for level in () if constant else others:
        se = math.sqrt(ss_res / dof * (1.0 / len(groups[level]) + 1.0 / len(groups[ref])))
        # se == 0 only when each group is constant: an exact fit, as in fit_multi
        t = max(t, abs(means[level] - means[ref]) / se if se > 0.0 else math.inf)
    return ReportCell(key, student_t_sf(t, dof), _r_squared(constant, ss_res, ss_tot), n)


def weather_studies(
    weather: Mapping[str, Mapping[date, tuple]],
    series_by_metro: Mapping[str, CaseSeries],
    period_sets: Mapping[str, PeriodSet],
) -> tuple[CorrelationReport, ...]:
    """Per metro/period fits of daily log growth on weather, one report per WEATHER_MODES entry.

    The labels are the reported type and the bucketed high and low
    temperatures.  A cell's p-value is the smallest among its dummies.
    """
    cells: tuple[list[ReportCell], ...] = tuple([] for _ in WEATHER_MODES)
    for metro in sorted(period_sets):
        series = series_by_metro.get(metro)
        if series is None:
            raise ValidationError(f"no case series for metro {metro}")
        by_day = weather.get(metro, {})
        for period in period_sets[metro].periods:
            labeled = [(row, change) for day, change in daily_log_growth(series, period)
                       if (row := by_day.get(day)) is not None]
            y = [change for _, change in labeled]
            kinds = [row[0] for row, _ in labeled]
            highs = [bucket_temperature(row[1], "high-temp") for row, _ in labeled]
            lows = [bucket_temperature(row[2], "low-temp") for row, _ in labeled]
            for mode_cells, labels in zip(cells, (kinds, highs, lows)):
                mode_cells.append(_weather_cell((metro, f"P{period.index}"), labels, y))
    return tuple(CorrelationReport(f"weather-{mode}", tuple(c)) for mode, c in zip(WEATHER_MODES, cells))


def weather_study(weather: Mapping[str, Mapping[date, tuple]], series_by_metro: Mapping[str, CaseSeries],
                  period_sets: Mapping[str, PeriodSet], mode: str) -> CorrelationReport:
    """The ``mode`` report of ``weather_studies``: "type", "high-temp" or "low-temp"."""
    if mode not in WEATHER_MODES:
        raise ValidationError(f"unknown weather mode {mode!r}; choose from {', '.join(WEATHER_MODES)}")
    return weather_studies(weather, series_by_metro, period_sets)[WEATHER_MODES.index(mode)]


def load_demographics(source) -> tuple[dict[str, dict[str, dict[str, float]]], list[str]]:
    """Read metro,group,subcategory,value rows as group -> metro -> subcategory -> percentage in [0, 100].

    Metros missing some of a group's subcategories stay in the table but are
    flagged with a warning; the study skips them for that group.
    """
    values: dict[str, dict[str, dict[str, float]]] = {}
    rows, where = read_table(source, DEMOGRAPHICS_HEADER, "demographics CSV")
    for metro, group, subcat, raw in rows:
        if not metro or not group or not subcat:
            raise ParseError(f"{where()}: empty key field")
        try:
            value = float(raw)
        except ValueError:
            raise ParseError(f"{where()}: bad value {raw!r}") from None
        if not math.isfinite(value) or value < 0 or value > 100:
            raise ValidationError(f"{where()}: value {raw} outside [0, 100]")
        per_metro = values.setdefault(group, {}).setdefault(metro, {})
        if subcat in per_metro:
            raise ValidationError(f"{where()}: duplicate entry for {metro}/{group}/{subcat}")
        per_metro[subcat] = value
    warnings = []
    for group, per_group in sorted(values.items()):
        cats = subcategories(per_group)
        for metro, per_metro in sorted(per_group.items()):
            if missing := [cat for cat in cats if cat not in per_metro]:
                warnings.append(f"{metro}: missing {group} value(s) for {', '.join(missing)}; "
                                f"excluded from the {group} regression")
    return values, warnings


def write_demographics_csv(table: Mapping[str, Mapping[str, Mapping[str, float]]], fh: io.TextIOBase) -> None:
    write_table(fh, DEMOGRAPHICS_HEADER, (
        (metro, group, subcat, value)
        for group, per_group in sorted(table.items())
        for metro, per_metro in sorted(per_group.items())
        for subcat, value in sorted(per_metro.items())
    ))


def load_weather(source) -> dict[str, dict[date, tuple[str, float, float]]]:
    """Read metro,date,type,high,low rows, one per metro and date, as metro -> day -> (type, high, low).

    Each row names one of WEATHER_TYPES and carries finite temperatures with
    high >= low.  A repeated metro and date is reported only after every row
    has parsed.
    """
    values: dict[str, dict[date, tuple[str, float, float]]] = {}
    days: dict[str, date] = {}  # each distinct date string is parsed once
    duplicate = metro = by_day = None  # the first repeat; the previous row's metro and its days
    rows, where = read_table(source, WEATHER_HEADER, "weather CSV")
    for name, raw_day, kind, raw_high, raw_low in rows:
        day = days.get(raw_day)
        if day is None:
            try:
                day = days[raw_day] = parse_date(raw_day)
            except ValueError:
                raise ParseError(f"{where()}: bad date {raw_day!r}") from None
        try:
            high, low = float(raw_high), float(raw_low)
            kind = _WEATHER_KINDS[kind]
        except ValueError:
            raise ParseError(f"{where()}: bad temperature") from None
        except KeyError:
            raise ValidationError(f"{where()}: unknown weather type {kind!r}") from None
        if not -math.inf < low <= high < math.inf:  # the exact checks run only on a row that fails this
            if not (math.isfinite(high) and math.isfinite(low)):
                raise ValidationError(f"{where()}: temperatures must be finite")
            raise ValidationError(f"{where()}: {name} {day}: high below low")
        if name != metro:
            metro, by_day = name, values.setdefault(name, {})
        if day in by_day and duplicate is None:
            duplicate = f"duplicate weather row for {name} on {day}"
        by_day[day] = (kind, high, low)
    if duplicate is not None:
        raise ValidationError(duplicate)
    return values


def write_weather_csv(table: Mapping[str, Mapping[date, tuple]], fh: io.TextIOBase) -> None:
    write_table(fh, WEATHER_HEADER, (
        (metro, day, *row)
        for metro, by_day in sorted(table.items())
        for day, row in sorted(by_day.items())
    ))


def write_group_report_csv(report: CorrelationReport, fh: io.TextIOBase) -> None:
    if report.study != "demographic":
        raise ValidationError(f"expected a demographic report, got {report.study!r}")
    r2_by_group = {g.group: g.r_squared for g in report.groups}
    rows = ((*cell.key, cell.p_value, r2_by_group[cell.key[0]]) for cell in report.cells)
    write_table(fh, GROUP_REPORT_HEADER, rows)


def write_weather_report_csv(report: CorrelationReport, fh: io.TextIOBase) -> None:
    if not report.study.startswith("weather-"):
        raise ValidationError(f"expected a weather report, got {report.study!r}")
    by_metro: dict[str, dict[str, float | None]] = {}
    for cell in report.cells:
        metro, tag = cell.key
        by_metro.setdefault(metro, {})[tag] = cell.p_value
    rows = ((m, *(tags.get(f"P{k}") for k in range(1, 6))) for m, tags in sorted(by_metro.items()))
    write_table(fh, WEATHER_REPORT_HEADER, rows)
