"""The streaming loaders against their row-tuple reference, and the memory a streamed read takes.

tests/loader_reference.py holds ``read_table``, ``load_cases`` and ``load_weather`` as they
were before rows streamed without a ``(line, fields)`` tuple.  Each fuzz test builds one text,
mutates it, feeds it to both versions and asserts the same result, or the same error type and
message: the first fault in file order must win in both.
"""

import csv
import io
import tracemalloc
from datetime import date, timedelta

import loader_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from epigrowth.correlate import WEATHER_HEADER, WEATHER_TYPES, load_weather
from epigrowth.errors import ParseError, ValidationError
from epigrowth.timeseries import CASES_HEADER, CaseSeries, load_cases, read_table, write_cases_csv

FLOAT_END = 2**1024 - 2**970  # the least int float() rejects
# names that need quoting, span lines, hold non-ASCII or inner spaces
NAMES = ["a", "b", "Los Angeles", "x,y", 'q"q', "m\nn", "r\r\ns", "é", "New  York"]
START = date(2020, 3, 1)
COUNTS = st.integers(0, 10**6).map(str) | st.sampled_from([
    str(2**53 + 1), str(10**308), str(FLOAT_END - 1), "007", "+5", "1_000", "٣", "-0",
])


def _outcome(load, text):
    """``load``'s result on ``text``, or its error's type and message."""
    try:
        return load(io.StringIO(text))
    except (ParseError, ValidationError) as exc:
        return type(exc).__name__, str(exc)


def _cell(text, pad):
    """``text`` as one CSV cell: quoted when it must be, else padded with ``pad`` on both sides."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return pad + text + pad


@st.composite
def _texts(draw, header, rows, faults):
    """A table of ``rows``, shuffled or not, with up to two faulty rows of different kinds,
    blank lines, either line end and, sometimes, edge spaces that switch stripping on."""
    rows = [list(r) for r in rows]
    if draw(st.booleans()):  # regions interleaved and days out of order
        rows = draw(st.permutations(rows))
    for kind in draw(st.lists(st.sampled_from(sorted(faults)), max_size=2, unique=True)):
        at = draw(st.integers(0, len(rows)))
        rows.insert(at, faults[kind](draw, rows))
    pad = draw(st.sampled_from(["", "", " ", "\t"]))
    lines = [",".join(_cell(c, pad) for c in r) for r in [list(header), *rows]]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _day(draw, days=8):
    return (START + timedelta(days=draw(st.integers(0, days - 1)))).isoformat()


def _an_existing_row(draw, rows, fallback):
    return list(draw(st.sampled_from(rows))) if rows else fallback


# one faulty row of each kind, drawn with ``d`` beside the table's ``rows``
CASE_FAULT_ROWS = {
    "bad-date": lambda d, rows: [d(st.sampled_from(["2020-02-30", "20200301", "2020-W10-1", "x"])), "a", "1"],
    "bad-count": lambda d, rows: [_day(d), "a", d(st.sampled_from(["x", "1.5", "1e3", ""]))],
    "negative": lambda d, rows: [_day(d), d(st.sampled_from(["a", ""])), "-3"],
    "empty-region": lambda d, rows: [_day(d), "", d(COUNTS)],
    "duplicate": lambda d, rows: _an_existing_row(d, rows, [_day(d), "a", "1"])[:2] + [d(COUNTS)],
    "repeat": lambda d, rows: _an_existing_row(d, rows, [_day(d), "b", "2"]),
    "huge": lambda d, rows: [_day(d), d(st.sampled_from(["a", "b"])),
                             d(st.sampled_from([str(FLOAT_END), "9" * 400]))],
    "width": lambda d, rows: d(st.sampled_from([[_day(d), "a"], [_day(d), "a", "1", "2"]])),
}


@st.composite
def cases_texts(draw):
    regions = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True))
    rows = [[(START + timedelta(days=k)).isoformat(), region, draw(COUNTS)]
            for region in regions for k in range(8) if k == 0 or draw(st.integers(0, 3))]  # some gaps
    return draw(_texts(CASES_HEADER, rows, CASE_FAULT_ROWS))


TEMPERATURES = st.floats(-40, 110, allow_nan=False).map(repr)
WEATHER_FAULT_ROWS = {
    "bad-date": lambda d, rows: ["a", d(st.sampled_from(["2020-13-01", "20200301", ""])), "sunny", "2", "1"],
    "bad-temperature": lambda d, rows: ["a", _day(d), "sunny", d(st.sampled_from(["x", "", "1,5"])), "1"],
    "unknown-type": lambda d, rows: ["a", _day(d), d(st.sampled_from(["hail", "Sunny", ""])), "2", "1"],
    "inf": lambda d, rows: ["a", _day(d), "rainy",
                            *d(st.sampled_from([["inf", "1"], ["2", "-inf"], ["1e999", "0"]]))],
    "nan": lambda d, rows: ["a", _day(d), "rainy", *d(st.sampled_from([["nan", "1"], ["2", "NaN"]]))],
    "low-above-high": lambda d, rows: ["b", _day(d), "foggy", "1.5", "1.75"],
    "duplicate": lambda d, rows: _an_existing_row(d, rows, ["a", _day(d), "sunny", "2", "1"])[:2]
                                 + ["snowy", "0", "0"],
    "repeat": lambda d, rows: _an_existing_row(d, rows, ["b", _day(d), "cloudy", "3", "2"]),
    "width": lambda d, rows: d(st.sampled_from([["a", _day(d), "sunny", "2"],
                                                 ["a", _day(d), "sunny", "2", "1", "0"]])),
}


@st.composite
def weather_texts(draw):
    metros = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True))
    rows = []
    for metro in metros:
        for k in range(draw(st.integers(1, 6))):
            high = draw(TEMPERATURES)
            low = draw(st.sampled_from([high, repr(float(high) - draw(st.floats(0, 30)))]))
            day = (START + timedelta(days=k)).isoformat()
            rows.append([metro, day, draw(st.sampled_from(WEATHER_TYPES)), high, low])
    return draw(_texts(WEATHER_HEADER, rows, WEATHER_FAULT_ROWS))


@settings(max_examples=400, deadline=None)
@given(cases_texts())
def test_load_cases_matches_the_reference(text):
    assert _outcome(load_cases, text) == _outcome(ref.load_cases, text)


@settings(max_examples=400, deadline=None)
@given(weather_texts())
def test_load_weather_matches_the_reference(text):
    assert _outcome(load_weather, text) == _outcome(ref.load_weather, text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(cases_texts(), weather_texts()))
def test_read_table_matches_the_reference(text):
    header = CASES_HEADER if text.lower().lstrip(' \t"').startswith("date") else WEATHER_HEADER

    def new(source):
        rows, where = read_table(source, header, "t CSV")
        return [(where(), row) for row in rows]

    def old(source):
        return [(f"t CSV line {n}", row) for n, row in ref.read_table(source, header, "t CSV")]

    assert _outcome(new, text) == _outcome(old, text)


def test_the_first_fault_in_file_order_wins():
    """A row too large for a float, then a bad date: the big count is named, as before."""
    text = f"date,region,count\n2020-03-01,a,{FLOAT_END}\n2020-03-02,a,1\nnot-a-date,a,1\n"
    assert _outcome(load_cases, text) == ("ParseError", f"cases CSV line 2: bad count '{FLOAT_END}'")
    assert _outcome(load_cases, text.replace(str(FLOAT_END), str(FLOAT_END - 1))) == (
        "ParseError", "cases CSV line 4: bad date 'not-a-date'")
    assert _outcome(load_cases, text.replace("not-a-date", "2020-03-01")) == (
        "ParseError", f"cases CSV line 2: bad count '{FLOAT_END}'")


# A file shaped like the wide-noisy benchmark's cases.csv: 96 counties x 306 days, 29,376 rows.
STREAM_REGIONS, STREAM_DAYS = 96, 306
# tracemalloc peak of load_cases on that file, opened as the CLI opens it, with the row-tuple
# reader of tests/loader_reference.py, which reads through a StringIO copy of the text: 6.34 MB
# (CPython 3.11.7, NumPy 2.4.6).  The streaming reader peaks at 3.68 MB there, and a loader that
# also holds every row in a list at 11.7 MB; the margin lets the peak drift but not go bulk.
REFERENCE_PEAK_MB = 6.34
MARGIN_MB = 0.75


def _stream_file(tmp_path):
    path = tmp_path / "cases.csv"
    series = [CaseSeries(f"metro-{m // 2 + 1:02d}-{('east', 'west')[m % 2]}", START,
                         tuple(float((m * 7919 + k * 104729) % 900000 + 1000) for k in range(STREAM_DAYS)))
              for m in range(STREAM_REGIONS)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_cases_csv(series, fh)
    return path


def _peak_mb(load, path):
    with open(path, encoding="utf-8", newline="") as fh:
        tracemalloc.start()
        try:
            load(fh)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()


def test_load_cases_streams_its_rows(tmp_path):
    path = _stream_file(tmp_path)
    assert path.read_text(encoding="utf-8").count("\n") == STREAM_REGIONS * STREAM_DAYS + 1
    assert _peak_mb(load_cases, path) <= REFERENCE_PEAK_MB + MARGIN_MB


def test_the_streaming_guard_sees_a_bulk_read(tmp_path):
    """A loader that holds every row at once breaks the bound."""
    path = _stream_file(tmp_path)

    def bulk(fh):
        rows = list(csv.reader(fh))
        fh.seek(0)
        return load_cases(fh), rows

    assert _peak_mb(bulk, path) > REFERENCE_PEAK_MB + MARGIN_MB
