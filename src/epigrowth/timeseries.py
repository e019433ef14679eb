"""Ingestion and transformation of daily case-count series.

Cases CSV format: header ``date,region,count``; ISO dates, non-negative
integer counts.  Metro-map CSV format: header ``county,metro``.
"""

from __future__ import annotations

import io
import csv
import math
from dataclasses import dataclass, field
from datetime import date, timedelta
from typing import IO, Iterable, Iterator, Mapping

from .errors import InsufficientDataError, ParseError, ValidationError

CASES_HEADER = ("date", "region", "count")
METRO_MAP_HEADER = ("county", "metro")


def _as_text(source: IO) -> IO[str]:
    if isinstance(source, (str, bytes)):
        raise TypeError("load functions take an open file object, not a path or content")
    try:
        raw = source.read()
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        name = getattr(source, "name", "input")
        raise ParseError(f"{name}: not UTF-8 text (byte {exc.start})") from None
    return io.StringIO(raw)


@dataclass(frozen=True)
class DateInterval:
    """Inclusive range of calendar days."""

    start: date
    end: date

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValidationError(f"interval end {self.end} precedes start {self.start}")

    @property
    def days(self) -> int:
        return (self.end - self.start).days + 1

    def __contains__(self, day: date) -> bool:
        return self.start <= day <= self.end

    def dates(self) -> Iterator[date]:
        for i in range(self.days):
            yield self.start + timedelta(days=i)


@dataclass(frozen=True)
class CaseSeries:
    """Daily infected counts for one region, one entry per consecutive day.

    Counts are stored as floats so synthetic series can carry exact values;
    the CSV loader only ever produces whole numbers.
    """

    region: str
    start_date: date
    counts: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.region:
            raise ValidationError("series region name must be non-empty")
        counts = tuple(float(c) for c in self.counts)
        if not counts:
            raise ValidationError(f"{self.region}: series must hold at least one day")
        for c in counts:
            if not math.isfinite(c) or c < 0:
                raise ValidationError(f"{self.region}: counts must be finite and >= 0, got {c}")
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def end_date(self) -> date:
        return self.start_date + timedelta(days=len(self.counts) - 1)

    @property
    def interval(self) -> DateInterval:
        return DateInterval(self.start_date, self.end_date)

    def index_of(self, day: date) -> int:
        idx = (day - self.start_date).days
        if not 0 <= idx < len(self.counts):
            raise ValidationError(f"{self.region}: {day} outside series range")
        return idx

    def count_on(self, day: date) -> float:
        return self.counts[self.index_of(day)]

    def filled_count(self, day: date) -> float:
        """Count with aggregation fill rules: 0 before the first recorded day,
        last value carried forward after the final one."""
        idx = (day - self.start_date).days
        if idx < 0:
            return 0.0
        if idx >= len(self.counts):
            return self.counts[-1]
        return self.counts[idx]


@dataclass(frozen=True)
class LogSeries:
    """(day-index, log count) points for positive-count days, days strictly increasing."""

    points: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        pts = tuple((int(d), float(v)) for d, v in self.points)
        prev = None
        for d, v in pts:
            if not math.isfinite(v):
                raise ValidationError(f"log count at day {d} is not finite")
            if prev is not None and d <= prev:
                raise ValidationError("day indices must be strictly increasing")
            prev = d
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    def xs(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.points)

    def ys(self) -> tuple[float, ...]:
        return tuple(v for _, v in self.points)


@dataclass(frozen=True)
class MetroMap:
    """County-to-metro assignment; a county belongs to at most one metro."""

    entries: Mapping[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", dict(self.entries))

    def metro_of(self, county: str) -> str | None:
        return self.entries.get(county)

    def metros(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.entries.values())))


def _check_header(row: list[str] | None, expected: tuple[str, ...], what: str) -> None:
    got = [c.strip().lower() for c in row] if row else None
    if got != list(expected):
        raise ParseError(f"{what} must start with header '{','.join(expected)}'")


def load_cases(source: IO) -> tuple[list[CaseSeries], list[str]]:
    """Parse a cases CSV into one CaseSeries per region plus gap warnings.

    Gap days inside a region's range are filled by carrying the previous
    count forward; each contiguous gap produces one warning.  Malformed rows,
    negative counts, and duplicate (date, region) pairs are errors.
    """
    reader = csv.reader(_as_text(source))
    _check_header(next(reader, None), CASES_HEADER, "cases CSV")
    per_region: dict[str, dict[date, float]] = {}
    for row in reader:
        if not row:
            continue
        line = reader.line_num
        if len(row) != 3:
            raise ParseError(f"cases CSV line {line}: expected 3 fields, got {len(row)}")
        raw_date, region, raw_count = (c.strip() for c in row)
        try:
            day = date.fromisoformat(raw_date)
        except ValueError:
            raise ParseError(f"cases CSV line {line}: bad date {raw_date!r}") from None
        try:
            count = int(raw_count)
        except ValueError:
            raise ParseError(f"cases CSV line {line}: bad count {raw_count!r}") from None
        if count < 0:
            raise ValidationError(f"cases CSV line {line}: negative count for {region} on {day}")
        if not region:
            raise ParseError(f"cases CSV line {line}: empty region")
        by_date = per_region.setdefault(region, {})
        if day in by_date:
            raise ValidationError(f"cases CSV line {line}: duplicate entry for ({day}, {region})")
        by_date[day] = float(count)

    series: list[CaseSeries] = []
    warnings: list[str] = []
    for region in sorted(per_region):
        by_date = per_region[region]
        days = sorted(by_date)
        counts: list[float] = []
        cursor = days[0]
        for day in days:
            gap = (day - cursor).days
            if gap > 0:
                warnings.append(
                    f"{region}: no data for {gap} day(s) after {cursor - timedelta(days=1)}; "
                    f"carried {counts[-1]:g} forward"
                )
                counts.extend([counts[-1]] * gap)
                cursor = day
            counts.append(by_date[day])
            cursor = day + timedelta(days=1)
        series.append(CaseSeries(region, days[0], tuple(counts)))
    return series, warnings


def write_cases_csv(series: Iterable[CaseSeries], out: IO[str]) -> None:
    """Inverse of load_cases for whole-number series, rows sorted by (region, date)."""
    out.write(",".join(CASES_HEADER) + "\n")
    for s in sorted(series, key=lambda s: s.region):
        for i, c in enumerate(s.counts):
            day = s.start_date + timedelta(days=i)
            out.write(f"{day.isoformat()},{s.region},{int(round(c))}\n")


def load_metro_map(source: IO) -> MetroMap:
    reader = csv.reader(_as_text(source))
    _check_header(next(reader, None), METRO_MAP_HEADER, "metro-map CSV")
    entries: dict[str, str] = {}
    for row in reader:
        if not row:
            continue
        line = reader.line_num
        if len(row) != 2:
            raise ParseError(f"metro-map CSV line {line}: expected 2 fields, got {len(row)}")
        county, metro = (c.strip() for c in row)
        if not county or not metro:
            raise ParseError(f"metro-map CSV line {line}: empty county or metro")
        if county in entries:
            raise ValidationError(f"metro-map CSV line {line}: county {county!r} mapped twice")
        entries[county] = metro
    return MetroMap(entries)


def write_metro_map_csv(metro_map: MetroMap, out: IO[str]) -> None:
    out.write(",".join(METRO_MAP_HEADER) + "\n")
    for county in sorted(metro_map.entries):
        out.write(f"{county},{metro_map.entries[county]}\n")


def aggregate_to_metros(series: Iterable[CaseSeries], metro_map: MetroMap) -> list[CaseSeries]:
    """Sum county series day-wise into metro series over the union date range.

    A county contributes 0 before its first recorded day and its final count
    after its last one.  Every county must appear in the map.
    """
    by_county = list(series)
    unmapped = sorted({s.region for s in by_county} - set(metro_map.entries))
    if unmapped:
        raise ValidationError("counties missing from metro map: " + ", ".join(unmapped))
    members: dict[str, list[CaseSeries]] = {}
    for s in by_county:
        members.setdefault(metro_map.entries[s.region], []).append(s)

    out: list[CaseSeries] = []
    for metro in sorted(members):
        group = members[metro]
        start = min(s.start_date for s in group)
        end = max(s.end_date for s in group)
        counts = []
        for i in range((end - start).days + 1):
            day = start + timedelta(days=i)
            counts.append(sum(s.filled_count(day) for s in group))
        out.append(CaseSeries(metro, start, tuple(counts)))
    return out


def to_log_series(series: CaseSeries, window: DateInterval) -> LogSeries:
    """Natural log of the positive counts inside ``window``.

    Day indices are measured from the series' own start date.  Zero-count
    days are dropped; a window with no positive counts is an error.
    """
    lo = max(window.start, series.start_date)
    hi = min(window.end, series.end_date)
    points = []
    day = lo
    while day <= hi:
        c = series.count_on(day)
        if c > 0:
            points.append(((day - series.start_date).days, math.log(c)))
        day += timedelta(days=1)
    if not points:
        raise InsufficientDataError(
            f"{series.region}: no positive counts in {window.start}..{window.end}"
        )
    return LogSeries(tuple(points))
