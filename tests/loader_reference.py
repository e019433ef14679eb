"""The CSV loaders as they were before rows streamed without line-number tuples: a test oracle.

``read_table`` (with ``_needs_strip``), ``load_cases`` and ``load_weather`` below are that
code, copied unchanged but for imports and ``load_weather``'s plain-dict result.  ``read_table`` yields ``(line number, fields)`` for
every row, read from a ``StringIO`` of the text; each loader checks every row in full.
tests/test_loader_oracle.py feeds these and the package's loaders the same texts and asserts
the same results, or the same error type and message.
"""

import csv
import io
import math
import re
from collections import defaultdict
from datetime import date
from typing import IO, Iterator

from epigrowth.correlate import WEATHER_HEADER, WEATHER_TYPES
from epigrowth.errors import ParseError, ValidationError
from epigrowth.timeseries import _EDGE_SPACE, CASES_HEADER, CaseSeries, parse_date


def read_table(source: IO, header: tuple[str, ...], what: str) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line number, stripped fields)`` for each data row of a CSV table.

    Every loader reads through here, so all share these rules: the source is
    UTF-8 text; its first row is ``header`` (cells stripped and lowercased);
    blank lines are skipped; other rows hold ``len(header)`` fields; and CSV
    the csv module cannot read (a field over its size limit) is a ParseError.
    ``what`` names the table, and every line-numbered error, here and in the
    loaders, starts "``what`` line N:", N being the line the row ends on.

    Cells are stripped only when one can need it, decided once per text.  In
    text with no ``"`` every cell is unquoted, so it holds no ``,``, ``\\r``
    or ``\\n``: its first character follows the text's start, a ``,`` or a
    line end, and its last precedes a ``,``, a line end or the text's end.
    ``str.strip`` removes only ``str.isspace`` characters, and in ASCII text
    those are ``_EDGE_SPACE`` plus the two line ends.  So when ASCII text
    with no ``"`` has no ``_EDGE_SPACE`` character at either end or next to
    a ``,``, ``\\r`` or ``\\n``, no cell would change and none is stripped.
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
    width = len(header)
    strip = _needs_strip(text)
    reader = csv.reader(io.StringIO(text))
    try:
        first = next(reader, None)
        if [c.strip().lower() for c in first or ()] != list(header):
            raise ParseError(f"{what} must start with header '{','.join(header)}'")
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                raise ParseError(f"{what} line {reader.line_num}: expected {width} fields, got {len(row)}")
            yield reader.line_num, [c.strip() for c in row] if strip else row
    except csv.Error as exc:
        raise ParseError(f"{what} line {reader.line_num}: {exc}") from None


def _needs_strip(text: str) -> bool:
    """``read_table``'s strip test: one regex scan, space to space, per ``_EDGE_SPACE`` character held."""
    return not text.isascii() or '"' in text or any(
        w in text and (w in (text[:1], text[-1:]) or re.search(f"{e}(?:[,\r\n]|(?<=[,\r\n]{e}))", text))
        for w, e in zip(_EDGE_SPACE, map(re.escape, _EDGE_SPACE))
    )


def load_cases(source: IO) -> tuple[list[CaseSeries], list[str]]:
    """Parse a cases CSV into one CaseSeries per region plus gap warnings.

    Gap days inside a region's range are filled by carrying the previous
    count forward; each contiguous gap produces one warning.  Malformed rows,
    negative counts, counts too large for a float, and duplicate
    (date, region) pairs are errors.
    """
    per_region: defaultdict[str, dict[int, float]] = defaultdict(dict)  # region -> day ordinal -> count
    ordinals: dict[str, int] = {}  # each distinct date string is parsed once
    for line, (raw_date, region, raw_count) in read_table(source, CASES_HEADER, "cases CSV"):
        day = ordinals.get(raw_date)
        if day is None:
            try:
                day = ordinals[raw_date] = parse_date(raw_date).toordinal()
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
        by_day = per_region[region]
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
        if ordered[-1] - ordered[0] < len(ordered):  # the days are distinct, so there is no gap
            counts = [by_day[day] for day in ordered]
        else:
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


def load_weather(source) -> dict[str, dict[date, tuple[str, float, float]]]:
    """Read metro,date,type,high,low rows, one per metro and date.

    Each row names one of WEATHER_TYPES and carries finite temperatures with
    high >= low.  A repeated metro and date is reported only after every row
    has parsed.
    """
    values: defaultdict[str, dict[date, tuple[str, float, float]]] = defaultdict(dict)
    duplicate = None
    days: dict[str, date] = {}  # each distinct date string is parsed once
    for line, (metro, raw_day, kind, raw_high, raw_low) in read_table(source, WEATHER_HEADER, "weather CSV"):
        day = days.get(raw_day)
        if day is None:
            try:
                day = days[raw_day] = parse_date(raw_day)
            except ValueError:
                raise ParseError(f"weather CSV line {line}: bad date {raw_day!r}") from None
        try:
            high = float(raw_high)
            low = float(raw_low)
        except ValueError:
            raise ParseError(f"weather CSV line {line}: bad temperature") from None
        if kind not in WEATHER_TYPES:
            raise ValidationError(f"weather CSV line {line}: unknown weather type {kind!r}")
        if not (math.isfinite(high) and math.isfinite(low)):
            raise ValidationError(f"weather CSV line {line}: temperatures must be finite")
        if high < low:
            raise ValidationError(f"weather CSV line {line}: {metro} {day}: high below low")
        by_day = values[metro]
        if duplicate is None and day in by_day:
            duplicate = f"duplicate weather row for {metro} on {day}"
        by_day[day] = (kind, high, low)
    if duplicate is not None:
        raise ValidationError(duplicate)
    return dict(values)
