import csv
import io
from datetime import date, timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epigrowth.errors import InsufficientDataError, ParseError, ValidationError
from epigrowth.timeseries import (
    CaseSeries,
    DateInterval,
    MetroMap,
    _needs_strip,
    aggregate_to_metros,
    load_cases,
    load_metro_map,
    read_table,
    to_log_series,
    write_cases_csv,
    write_metro_map_csv,
)

MAR1 = date(2020, 3, 1)


def test_interval_day_count_is_inclusive():
    iv = DateInterval(MAR1, date(2020, 3, 31))
    assert iv.days == 31
    assert list(iv.dates())[0] == MAR1
    assert list(iv.dates())[-1] == date(2020, 3, 31)
    assert len(list(iv.dates())) == 31


def test_interval_rejects_reversed_dates():
    with pytest.raises(ValidationError):
        DateInterval(date(2020, 3, 2), MAR1)


def test_series_lookup_and_fill():
    s = CaseSeries("metro-x", MAR1, (5, 0, 7))
    assert s.end_date == date(2020, 3, 3)
    # within clips the window to the series: (offset of its first day, counts)
    assert s.within(DateInterval(date(2020, 3, 2), date(2020, 3, 9))) == (1, (0.0, 7.0))
    assert s.within(DateInterval(date(2020, 2, 1), MAR1)) == (0, (5.0,))
    assert s.within(DateInterval(date(2020, 3, 5), date(2020, 3, 9))) == (4, ())
    # filled_count extends the range: zero before, last value after
    assert s.filled_count(date(2020, 2, 20)) == 0
    assert s.filled_count(date(2020, 4, 1)) == 7


def test_series_rejects_bad_counts():
    with pytest.raises(ValidationError):
        CaseSeries("m", MAR1, (1, -2, 3))
    with pytest.raises(ValidationError):
        CaseSeries("m", MAR1, ())
    with pytest.raises(ValidationError):
        CaseSeries("", MAR1, (1,))


def test_load_cases_parses_and_sorts_regions():
    csv_text = (
        "date,region,count\n"
        "2020-03-02,beta,4\n"
        "2020-03-01,beta,2\n"
        "2020-03-01,alpha,1\n"
    )
    series, warnings = load_cases(io.StringIO(csv_text))
    assert [s.region for s in series] == ["alpha", "beta"]
    assert series[1].counts == (2.0, 4.0)
    assert warnings == []


def test_load_cases_fills_gaps_with_warning():
    csv_text = "date,region,count\n2020-03-01,m,2\n2020-03-04,m,8\n"
    series, warnings = load_cases(io.StringIO(csv_text))
    assert series[0].counts == (2.0, 2.0, 2.0, 8.0)
    assert len(warnings) == 1
    assert "m" in warnings[0]


@pytest.mark.parametrize(
    "row",
    [
        "2020-03-01,m,-1",  # negative
        "not-a-date,m,1",
        "2020-03-01,m,1.5",  # counts are whole numbers
        "2020-03-01,,1",
    ],
)
def test_load_cases_rejects_bad_rows(row):
    with pytest.raises((ParseError, ValidationError)):
        load_cases(io.StringIO(f"date,region,count\n{row}\n"))


def test_load_cases_rejects_duplicate_day():
    text = "date,region,count\n2020-03-01,m,1\n2020-03-01,m,2\n"
    with pytest.raises(ValidationError):
        load_cases(io.StringIO(text))


def test_load_cases_rejects_wrong_header():
    with pytest.raises(ParseError):
        load_cases(io.StringIO("day,region,count\n"))


def test_cases_roundtrip():
    series = [CaseSeries("a", MAR1, (1, 2, 3)), CaseSeries("b", MAR1, (0, 5, 5))]
    buf = io.StringIO()
    write_cases_csv(series, buf)
    buf.seek(0)
    loaded, warnings = load_cases(buf)
    assert warnings == []
    assert [(s.region, s.start_date, s.counts) for s in loaded] == [
        (s.region, s.start_date, s.counts) for s in series
    ]


def test_metro_map_roundtrip_and_lookup():
    mm = MetroMap({"a-east": "a", "a-west": "a", "b-main": "b"})
    assert mm.entries["a-east"] == "a"
    assert "nowhere" not in mm.entries
    buf = io.StringIO()
    write_metro_map_csv(mm, buf)
    buf.seek(0)
    assert load_metro_map(buf).entries == mm.entries


def test_aggregate_sums_counties_daywise():
    mm = MetroMap({"c1": "m", "c2": "m"})
    series = [
        CaseSeries("c1", MAR1, (1, 2, 3)),
        CaseSeries("c2", date(2020, 3, 2), (10, 10)),
    ]
    (metro,) = aggregate_to_metros(series, mm)
    assert metro.region == "m"
    assert metro.start_date == MAR1
    # c2 contributes 0 before its first day
    assert metro.counts == (1.0, 12.0, 13.0)


def test_aggregate_requires_mapped_counties():
    mm = MetroMap({"c1": "m"})
    with pytest.raises(ValidationError, match="c2"):
        aggregate_to_metros([CaseSeries("c2", MAR1, (1,))], mm)


def test_log_series_skips_nonpositive_days():
    s = CaseSeries("m", MAR1, (1, 0, 7, 0))
    x, y = to_log_series(s, DateInterval(MAR1, date(2020, 3, 4)))
    assert x.tolist() == [0.0, 2.0]
    assert y[0] == pytest.approx(0.0)


def test_log_series_empty_window_raises():
    s = CaseSeries("m", MAR1, (0, 0, 0))
    with pytest.raises(InsufficientDataError):
        to_log_series(s, DateInterval(s.start_date, s.end_date))


def _reference_aggregate(series, metro_map):
    """aggregate_to_metros as it was written before it used NumPy: a day-by-day sum.

    That code summed with ``sum()``, which adds floats left to right up to
    Python 3.11 (3.12 compensates), so the sum is spelled out as that loop.
    """
    members = {}
    for s in series:
        members.setdefault(metro_map.entries[s.region], []).append(s)
    out = []
    for metro in sorted(members):
        group = members[metro]
        start = min(s.start_date for s in group)
        end = max(s.end_date for s in group)
        counts = []
        for i in range((end - start).days + 1):
            day = start + timedelta(days=i)
            total = 0
            for s in group:
                total = total + s.filled_count(day)
            counts.append(total)
        out.append(CaseSeries(metro, start, tuple(counts)))
    return out


_county = st.tuples(
    st.integers(0, 40),  # start offset: counties start and end on different days
    st.lists(
        st.one_of(st.integers(0, 1000), st.integers(2**53 - 10, 2**62)).map(float),
        min_size=1,
        max_size=30,
    ),
    st.integers(0, 2),  # metro
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_county, min_size=1, max_size=8))
def test_aggregate_matches_the_day_by_day_sum_bit_for_bit(counties):
    series = [
        CaseSeries(f"c{k}", MAR1 + timedelta(days=start), tuple(counts))
        for k, (start, counts, _) in enumerate(counties)
    ]
    mm = MetroMap({f"c{k}": f"m{metro}" for k, (_, _, metro) in enumerate(counties)})
    got = aggregate_to_metros(series, mm)
    want = _reference_aggregate(series, mm)
    assert [(s.region, s.start_date) for s in got] == [(s.region, s.start_date) for s in want]
    for g, w in zip(got, want):
        assert [c.hex() for c in g.counts] == [c.hex() for c in w.counts]


def test_aggregate_of_counts_too_large_to_sum_is_rejected():
    mm = MetroMap({"c1": "m", "c2": "m"})
    series = [CaseSeries("c1", MAR1, (1e308,)), CaseSeries("c2", MAR1, (1e308,))]
    with pytest.raises(ValidationError, match="finite"):
        aggregate_to_metros(series, mm)


def _read_rows(text, header=("a", "b")):
    """read_table's rows of ``text``, each paired with what ``where()`` says of it."""
    rows, where = read_table(io.StringIO(text), header, "t CSV")
    return [(where(), row) for row in rows]


def _reference_rows(text, width, label):
    """The loop each loader ran before read_table: csv rows, blanks skipped, fields stripped."""
    reader = csv.reader(io.StringIO(text))
    next(reader, None)
    rows = []
    for row in reader:
        if not row:
            continue
        if len(row) != width:
            raise ParseError(f"{label} {reader.line_num}: expected {width} fields, got {len(row)}")
        rows.append((f"{label} {reader.line_num}", [c.strip() for c in row]))
    return rows


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=[",", '"', "\n", "\r", " ", "\t", "\x1c", "\xa0", "a", "1"], max_size=40))
# read_table skips stripping when it proves no cell needs it; each example defeats a weaker proof
@example('"x\n",y\n')  # a quoted cell ending in a line break, with no space or tab in the text
@example('" x",y\n')
@example("x,y\r\n1,2\r\n")
@example("x,y \r\n")
@example("\xa0x,y\n")
@example("x,y\x1c\n")
@example("x,\ty\n")
@example("x,y \n")
@example("x,y ")
def test_read_table_rows_are_the_stripped_csv_rows(body):
    text = "a,b\n" + body
    try:
        want = _reference_rows(text, 2, "t CSV line")
    except (ParseError, csv.Error) as exc:
        want = exc
    try:
        got = _read_rows(text)
    except ParseError as exc:
        got = exc
    if isinstance(want, Exception):
        assert isinstance(got, ParseError)
        if isinstance(want, ParseError):
            assert str(got) == str(want)
    else:
        assert got == want


CASES = "date,region,count\n2020-03-01,Los Angeles,5\n2020-03-01,New  York City,7\n"


def test_names_with_inner_spaces_are_not_stripped_and_edge_spaces_are():
    assert not _needs_strip(CASES)
    assert not _needs_strip(CASES.replace("\n", "\r\n"))
    for old, new in (("Los Angeles", "Los Angeles "), ("Los Angeles", " Los Angeles"), ("City", "City\t"),
                     ("\n2020", "\n 2020"), ("Los", "\x1cLos"), ("date", " date"), ("7\n", "7\n ")):
        assert _needs_strip(CASES.replace(old, new)), new


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([",", "\n", "\r\n", " ", "\t", "\x1c", "a", "1"]), max_size=30).map("".join))
def test_cells_are_stripped_exactly_when_one_would_change(text):
    cells = [c for row in csv.reader(io.StringIO(text)) for c in row]
    assert _needs_strip(text) == any(c != c.strip() for c in cells)


def test_read_table_shared_rules():
    text = "A , B\n\n x ,y\n"
    assert _read_rows(text) == [("t CSV line 3", ["x", "y"])]
    with pytest.raises(ParseError, match="^t CSV must start with header 'a,b'$"):
        _read_rows("a\n")
    with pytest.raises(ParseError, match="^t CSV line 2: expected 2 fields, got 1$"):
        _read_rows("a,b\n1\n")
    big = "x" * (csv.field_size_limit() + 1)
    with pytest.raises(ParseError, match=r"^t CSV line 3: field larger than field limit \(\d+\)$"):
        _read_rows(f"a,b\n1,2\n1,{big}\n")
