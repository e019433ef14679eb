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

import numpy as np

from .errors import InsufficientDataError, ParseError, ValidationError

CASES_HEADER = ("date", "region", "count")
METRO_MAP_HEADER = ("county", "metro")


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

    def within(self, window: DateInterval) -> tuple[int, tuple[float, ...]]:
        """(index of the first day, counts) of the days the series shares with ``window``."""
        lo = max((window.start - self.start_date).days, 0)
        hi = min((window.end - self.start_date).days + 1, len(self.counts))
        return lo, self.counts[lo:max(lo, hi)]

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
class MetroMap:
    """County-to-metro assignment; a county belongs to at most one metro."""

    entries: Mapping[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", dict(self.entries))

    def metros(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.entries.values())))


def read_table(
    source: IO, header: tuple[str, ...], what: str, *, label: str | None = None, say_got: bool = True
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line number, stripped fields)`` for each data row of a CSV table.

    Every loader reads through here, so all share these rules: the source is
    UTF-8 text; its first row is ``header`` (cells stripped and lowercased);
    blank lines are skipped; other rows hold ``len(header)`` fields; and CSV
    the csv module cannot read (a field over its size limit) is a ParseError.
    ``what`` names the table in the header error.  Line-numbered errors start
    with ``label`` (default "``what`` line") and the line the row ends on;
    ``say_got`` adds the field count found to the field-count error.
    """
    if isinstance(source, (str, bytes)):
        raise TypeError("load functions take an open file object, not a path or content")
    try:
        text = source.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
    except UnicodeDecodeError as exc:
        name = getattr(source, "name", "input")
        raise ParseError(f"{name}: not UTF-8 text (byte {exc.start})") from None
    label = label or f"{what} line"
    width = len(header)
    reader = csv.reader(io.StringIO(text))
    try:
        first = next(reader, None)
        if [c.strip().lower() for c in first or ()] != list(header):
            raise ParseError(f"{what} must start with header '{','.join(header)}'")
        for row in reader:
            line = reader.line_num
            row = [c.strip() for c in row]
            if len(row) != width:
                if not row:
                    continue
                got = f", got {len(row)}" if say_got else ""
                raise ParseError(f"{label} {line}: expected {width} fields{got}")
            yield line, row
    except csv.Error as exc:
        raise ParseError(f"{label} {reader.line_num}: {exc}") from None


def load_cases(source: IO) -> tuple[list[CaseSeries], list[str]]:
    """Parse a cases CSV into one CaseSeries per region plus gap warnings.

    Gap days inside a region's range are filled by carrying the previous
    count forward; each contiguous gap produces one warning.  Malformed rows,
    negative counts, counts too large for a float, and duplicate
    (date, region) pairs are errors.
    """
    per_region: dict[str, dict[int, float]] = {}  # region -> day ordinal -> count
    ordinals: dict[str, int] = {}  # each distinct date string is parsed once
    for line, (raw_date, region, raw_count) in read_table(source, CASES_HEADER, "cases CSV"):
        day = ordinals.get(raw_date)
        if day is None:
            try:
                day = ordinals[raw_date] = date.fromisoformat(raw_date).toordinal()
            except ValueError:
                raise ParseError(f"cases CSV line {line}: bad date {raw_date!r}") from None
        try:
            count = int(raw_count)
        except ValueError:
            raise ParseError(f"cases CSV line {line}: bad count {raw_count!r}") from None
        if count < 0:
            raise ValidationError(
                f"cases CSV line {line}: negative count for {region} on {date.fromordinal(day)}"
            )
        if not region:
            raise ParseError(f"cases CSV line {line}: empty region")
        by_day = per_region.setdefault(region, {})
        if day in by_day:
            raise ValidationError(
                f"cases CSV line {line}: duplicate entry for ({date.fromordinal(day)}, {region})"
            )
        try:
            by_day[day] = float(count)
        except OverflowError:
            raise ParseError(f"cases CSV line {line}: bad count {raw_count!r}") from None

    series: list[CaseSeries] = []
    warnings: list[str] = []
    for region in sorted(per_region):
        by_day = per_region[region]
        ordered = sorted(by_day)
        counts = [by_day[ordered[0]]]
        for prev, day in zip(ordered, ordered[1:]):
            gap = day - prev - 1
            if gap:
                warnings.append(
                    f"{region}: no data for {gap} day(s) after {date.fromordinal(prev)}; "
                    f"carried {counts[-1]:g} forward"
                )
                counts.extend([counts[-1]] * gap)
            counts.append(by_day[day])
        series.append(CaseSeries(region, date.fromordinal(ordered[0]), tuple(counts)))
    return series, warnings


def write_cases_csv(series: Iterable[CaseSeries], out: IO[str]) -> None:
    """Inverse of load_cases for whole-number series, rows sorted by (region, date)."""
    out.write(",".join(CASES_HEADER) + "\n")
    for s in sorted(series, key=lambda s: s.region):
        for i, c in enumerate(s.counts):
            day = s.start_date + timedelta(days=i)
            out.write(f"{day.isoformat()},{s.region},{int(round(c))}\n")


def load_metro_map(source: IO) -> MetroMap:
    entries: dict[str, str] = {}
    for line, (county, metro) in read_table(source, METRO_MAP_HEADER, "metro-map CSV"):
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
        total = np.zeros((max(s.end_date for s in group) - start).days + 1)
        # Counties are added in group order, so each day's total is the same
        # left-to-right float sum as adding the filled counts one by one.
        with np.errstate(over="ignore"):  # an infinite total is rejected by CaseSeries
            for s in group:
                lo = (s.start_date - start).days
                hi = lo + len(s.counts)
                total[lo:hi] += s.counts
                total[hi:] += s.counts[-1]
        out.append(CaseSeries(metro, start, tuple(total.tolist())))
    return out


def to_log_series(series: CaseSeries, window: DateInterval) -> tuple[np.ndarray, np.ndarray]:
    """(day, natural log of the count) of the positive-count days inside ``window``.

    Returns two float arrays, days ascending.  Day indices are measured from
    the series' own start date.  Zero-count days are dropped; a window with
    no positive counts is an error.
    """
    first, counts = series.within(window)
    points = [(d, math.log(c)) for d, c in enumerate(counts, start=first) if c > 0]
    if not points:
        raise InsufficientDataError(
            f"{series.region}: no positive counts in {window.start}..{window.end}"
        )
    days, logs = zip(*points)
    return np.array(days, dtype=float), np.array(logs)
