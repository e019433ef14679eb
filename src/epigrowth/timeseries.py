"""Ingestion and transformation of daily case-count series.

Cases CSV format: header ``date,region,count``; ``YYYY-MM-DD`` dates, non-negative
integer counts.  Metro-map CSV format: header ``county,metro``.
"""

from __future__ import annotations

import io
import csv
import math
import re
from dataclasses import dataclass
from datetime import date, timedelta
from typing import IO, Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import InsufficientDataError, ParseError, ValidationError

CASES_HEADER = ("date", "region", "count")
METRO_MAP_HEADER = ("county", "metro")
# The ASCII characters str.strip removes, less the line ends no unquoted cell holds.
_EDGE_SPACE = "".join(c for c in map(chr, range(128)) if c.isspace() and c not in "\r\n")
_FLOAT_END = 2**1024 - 2**970  # the least int float() rejects: half an ulp past the largest float


def parse_date(text: str) -> date:
    """``text`` as a date; ValueError unless it is a real day written ``YYYY-MM-DD``, the one form every
    supported Python reads alike (3.11's ``date.fromisoformat`` also takes ``20200301``, ``2020-W10-1``)."""
    if not re.fullmatch("[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return date.fromisoformat(text)


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

    def dates(self) -> Iterator[date]:
        for i in range(self.days):
            yield self.start + timedelta(days=i)


def _nonneg_column(values, name: str) -> tuple[float, ...]:
    """``values`` as floats, each checked finite and >= 0 in one NumPy pass.

    The first bad value raises "``name`` must be finite and >= 0, got ...",
    naming the float it converts to.  Every non-negative check goes through
    here; a scalar is checked as a column of one.
    """
    try:
        column = np.asarray(values, dtype=float)
    except OverflowError:  # an int past the float range
        raise ValidationError(f"{name} must be finite and >= 0, got a number too large for a float") from None
    bad = np.flatnonzero(~(np.isfinite(column) & (column >= 0.0)))
    if bad.size:
        raise ValidationError(f"{name} must be finite and >= 0, got {float(column[bad[0]])}")
    return tuple(column.tolist())


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
        counts = _nonneg_column(self.counts, f"{self.region}: counts")
        if not counts:
            raise ValidationError(f"{self.region}: series must hold at least one day")
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def end_date(self) -> date:
        return self.start_date + timedelta(days=len(self.counts) - 1)

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


def read_table(source: IO, header: tuple[str, ...], what: str) -> tuple[Iterator[list[str]], Callable]:
    """``(rows, where)``: ``rows`` yields each data row's stripped fields, one row at a time, and
    ``where()`` names the row last yielded: "``what`` line N", N being the line the row ends on.

    Every loader reads through here, so all share these rules: the source is UTF-8 text; its
    first row is ``header`` (cells stripped and lowercased); blank lines are skipped; other rows
    hold ``len(header)`` fields; and CSV the csv module cannot read (a field over its size limit)
    is a ParseError.  Every line-numbered error, here and in the loaders, starts "``where()``:".
    Only ``\\n`` ends a line; lines are cut from the text's UTF-8 bytes (for ASCII text, a
    quarter of the memory a ``StringIO`` of it takes).

    Cells are stripped only when one can need it, decided once per text.  In text with no ``"``
    every cell is unquoted, so it holds no ``,``, ``\\r`` or ``\\n``: its first character follows
    the text's start, a ``,`` or a line end, and its last precedes a ``,``, a line end or the
    text's end.  ``str.strip`` removes only ``str.isspace`` characters, and in ASCII text those
    are ``_EDGE_SPACE`` plus the two line ends.  So when ASCII text with no ``"`` has no
    ``_EDGE_SPACE`` character at either end or next to a ``,``, ``\\r`` or ``\\n``, no cell
    would change and none is stripped.
    """
    if isinstance(source, (str, bytes)):
        raise TypeError("load functions take an open file object, not a path or content")
    try:
        text = source.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{getattr(source, 'name', 'input')}: not UTF-8 text (byte {exc.start})") from None
    width = len(header)
    strip = _needs_strip(text)
    codec = ("utf-8", "surrogatepass")  # any str round-trips, a lone surrogate too
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(text.encode(*codec)), *codec, newline="\n"))

    def rows() -> Iterator[list[str]]:
        try:
            if [c.strip().lower() for c in next(reader, None) or ()] != list(header):
                raise ParseError(f"{what} must start with header '{','.join(header)}'")
            for row in reader:
                if (got := len(row)) != width:
                    if not row:
                        continue
                    raise ParseError(f"{what} line {reader.line_num}: expected {width} fields, got {got}")
                yield [c.strip() for c in row] if strip else row
        except csv.Error as exc:
            raise ParseError(f"{what} line {reader.line_num}: {exc}") from None

    return rows(), lambda: f"{what} line {reader.line_num}"


def _needs_strip(text: str) -> bool:
    """``read_table``'s strip test: one regex scan, space to space, per ``_EDGE_SPACE`` character held."""
    return not text.isascii() or '"' in text or any(
        w in text and (w in (text[:1], text[-1:]) or re.search(f"{e}(?:[,\r\n]|(?<=[,\r\n]{e}))", text))
        for w, e in zip(_EDGE_SPACE, map(re.escape, _EDGE_SPACE))
    )


def write_table(out: IO[str], header: tuple[str, ...], rows: Iterable[Iterable]) -> None:
    """Write ``header`` then ``rows`` as CSV; every CSV artifact is written here.

    A field is quoted only when it holds a comma, a double quote or a line
    break, so any name round-trips through ``read_table``; ``None`` is
    written as ``NA`` and every other value as ``str``: a float as its
    shortest round-trip repr, a date in ISO form.  Lines end in ``\n``, and
    as csv then quotes no carriage return, a row holding one is quoted whole.
    """
    writer = csv.writer(out, lineterminator="\n")
    quote_all = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow(header)
    for row in rows:
        cells = ["NA" if v is None else str(v) for v in row]
        (quote_all if any("\r" in c for c in cells) else writer).writerow(cells)


def load_cases(source: IO) -> tuple[list[CaseSeries], list[str]]:
    """Parse a cases CSV into one CaseSeries per region plus gap warnings.

    Gap days inside a region's range are filled by carrying the previous
    count forward; each contiguous gap produces one warning.  Malformed rows,
    negative counts, counts too large for a float, and duplicate
    (date, region) pairs are errors.
    """
    per_region: dict[str, dict[int, int]] = {}  # region -> day ordinal -> count
    ordinals: dict[str, int] = {}  # each distinct date string is parsed once
    region = by_day = None  # the previous row's region and its days: rows come grouped by region
    rows, where = read_table(source, CASES_HEADER, "cases CSV")
    for raw_date, name, raw_count in rows:
        day = ordinals.get(raw_date)
        if day is None:
            try:
                day = ordinals[raw_date] = parse_date(raw_date).toordinal()
            except ValueError:
                raise ParseError(f"{where()}: bad date {raw_date!r}") from None
        try:
            count = int(raw_count)
        except ValueError:
            raise ParseError(f"{where()}: bad count {raw_count!r}") from None
        if count < 0:
            raise ValidationError(f"{where()}: negative count for {name} on {date.fromordinal(day)}")
        if name != region:
            if not name:
                raise ParseError(f"{where()}: empty region")
            region, by_day = name, per_region.setdefault(name, {})
        if day in by_day:
            raise ValidationError(f"{where()}: duplicate entry for ({date.fromordinal(day)}, {name})")
        if count >= _FLOAT_END:
            raise ParseError(f"{where()}: bad count {raw_count!r}")
        by_day[day] = count

    series, warnings = [], []
    for region in sorted(per_region):
        by_day = per_region[region]
        ordered = sorted(by_day)
        counts = list(map(by_day.__getitem__, ordered))
        if ordered[-1] - ordered[0] >= len(ordered):  # the days are distinct, so this means a gap
            counts = counts[:1]
            for prev, day in zip(ordered, ordered[1:]):
                gap = day - prev - 1
                if gap:
                    warnings.append(f"{region}: no data for {gap} day(s) after {date.fromordinal(prev)}; "
                                    f"carried {counts[-1]:g} forward")
                    counts.extend([counts[-1]] * gap)
                counts.append(by_day[day])
        series.append(CaseSeries(region, date.fromordinal(ordered[0]), counts))
    return series, warnings


def write_cases_csv(series: Iterable[CaseSeries], out: IO[str]) -> None:
    """Inverse of load_cases for whole-number series, rows sorted by (region, date)."""
    rows = ((s.start_date + timedelta(days=i), s.region, int(round(c)))
            for s in sorted(series, key=lambda s: s.region) for i, c in enumerate(s.counts))
    write_table(out, CASES_HEADER, rows)


def load_metro_map(source: IO) -> MetroMap:
    entries: dict[str, str] = {}
    rows, where = read_table(source, METRO_MAP_HEADER, "metro-map CSV")
    for county, metro in rows:
        if not county or not metro:
            raise ParseError(f"{where()}: empty county or metro")
        if county in entries:
            raise ValidationError(f"{where()}: county {county!r} mapped twice")
        entries[county] = metro
    return MetroMap(entries)


def write_metro_map_csv(metro_map: MetroMap, out: IO[str]) -> None:
    write_table(out, METRO_MAP_HEADER, sorted(metro_map.entries.items()))


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
        out.append(CaseSeries(metro, start, total))
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
