"""Every CSV artifact goes through ``timeseries.write_table`` and reads back through its loader."""

import csv
import io
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epigrowth.cli import main
from epigrowth.correlate import (
    WEATHER_TYPES,
    DemographicTable,
    load_demographics,
    load_weather,
    weather_studies,
    write_demographics_csv,
    write_weather_csv,
)
from epigrowth.regress import SimpleFit
from epigrowth.segment import (
    NUM_PERIODS,
    Period,
    PeriodSet,
    initial_periods,
    load_periods_csv,
    write_periods_csv,
)
from epigrowth.sir import InflowSeries, load_inflow, write_inflow_csv
from epigrowth.timeseries import (
    CaseSeries,
    DateInterval,
    aggregate_to_metros,
    load_cases,
    load_metro_map,
    write_cases_csv,
    write_metro_map_csv,
    write_table,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "epigrowth"
# writing a CSV line by hand, or spelling the missing-value mark, outside write_table
HAND_WRITTEN = ("csv.writer(", '.write(f"', '"NA"')


def test_only_write_table_writes_csv_rows():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "timeseries.py" in modules
    found = [
        (path.name, pattern)
        for path in modules
        if path.name != "timeseries.py"
        for pattern in HAND_WRITTEN
        if pattern in path.read_text(encoding="utf-8")
    ]
    assert found == []


def test_write_table_quotes_only_what_needs_it():
    out = io.StringIO()
    write_table(out, ("name", "day", "x"), [
        ("Dallas-Fort Worth, TX", date(2020, 3, 1), 0.1),
        ('say "hi"', None, 3),
        ("a\nb", date(2020, 3, 2), None),
        ("a\rb", None, 1.5),
    ])
    assert out.getvalue() == (
        "name,day,x\n"
        '"Dallas-Fort Worth, TX",2020-03-01,0.1\n'
        '"say ""hi""",NA,3\n'
        '"a\nb",2020-03-02,NA\n'
        '"a\rb","NA","1.5"\n'
    )


# read_table strips each field, so a name that round-trips has no space at either end
names = st.text(
    st.sampled_from(',"\n\ré東') | st.characters(blacklist_categories=("Cs",)),
    min_size=1,
    max_size=10,
).filter(lambda s: s == s.strip() != "")
days = st.dates(date(2019, 1, 1), date(2021, 12, 31))
finite = st.floats(allow_nan=False, allow_infinity=False)


def _round_trip(write, load, value):
    out = io.StringIO()
    write(value, out)
    return load(io.StringIO(out.getvalue()))


@settings(max_examples=60, deadline=None)
@given(
    regions=st.lists(names, min_size=1, max_size=3, unique=True),
    start=days,
    counts=st.lists(st.integers(0, 10**9), min_size=1, max_size=5),
)
def test_cases_round_trip(regions, start, counts):
    series = [CaseSeries(r, start + timedelta(days=k), counts) for k, r in enumerate(regions)]
    loaded, warnings = _round_trip(write_cases_csv, load_cases, series)
    assert loaded == sorted(series, key=lambda s: s.region)
    assert warnings == []


@settings(max_examples=60, deadline=None)
@given(entries=st.dictionaries(names, names, min_size=1, max_size=4))
@example(entries={"Dallas-Fort Worth, TX-east": "Dallas-Fort Worth, TX", 'say "hi"': "Zürich,\nCH"})
def test_metro_map_round_trip(entries):
    assert _round_trip(write_metro_map_csv, load_metro_map, entries) == entries


def _period_set(metro, start, lengths, fits):
    periods, day = [], start
    for k, (length, fit) in enumerate(zip(lengths, fits), start=1):
        periods.append(Period(k, day, day + timedelta(days=length - 1), SimpleFit(*fit, length)))
        day += timedelta(days=length)
    return PeriodSet(metro, tuple(periods))


@settings(max_examples=60, deadline=None)
@given(
    metros=st.lists(names, min_size=1, max_size=3, unique=True),
    start=days,
    lengths=st.lists(st.integers(1, 30), min_size=NUM_PERIODS, max_size=NUM_PERIODS),
    fits=st.lists(st.tuples(finite, finite, finite), min_size=NUM_PERIODS, max_size=NUM_PERIODS),
)
def test_periods_round_trip(metros, start, lengths, fits):
    sets = [_period_set(m, start, lengths, fits) for m in metros]
    out = io.StringIO()
    write_periods_csv(sets, out)
    loaded = load_periods_csv(io.StringIO(out.getvalue()))
    assert list(loaded) == sorted(metros)
    for ps in sets:
        assert [(p.start, p.end) for p in loaded[ps.metro].periods] == [
            (p.start, p.end) for p in ps.periods
        ]
    rows = list(csv.reader(io.StringIO(out.getvalue())))[1:]
    assert [tuple(map(float, r[4:])) for r in rows] == [
        (p.fit.slope, p.fit.intercept, p.fit.r_squared)
        for ps in sorted(sets, key=lambda ps: ps.metro)
        for p in ps.periods
    ]


@settings(max_examples=60, deadline=None)
@given(o=st.lists(st.floats(0, 1e300), max_size=6))
def test_inflow_round_trip(o):
    assert _round_trip(write_inflow_csv, load_inflow, InflowSeries(o)) == InflowSeries(o)


@settings(max_examples=60, deadline=None)
@given(
    values=st.dictionaries(
        names,
        st.dictionaries(names, st.dictionaries(names, st.floats(0, 100), min_size=1, max_size=2),
                        min_size=1, max_size=2),
        min_size=1,
        max_size=2,
    )
)
def test_demographics_round_trip(values):
    table, _ = _round_trip(write_demographics_csv, load_demographics, DemographicTable(values))
    assert table.values == values


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(names, days, st.sampled_from(WEATHER_TYPES), finite, finite),
        max_size=5,
        unique_by=lambda r: r[:2],
    )
)
def test_weather_round_trip(rows):
    values = {}
    for m, d, k, a, b in sorted(rows):  # the writer's order, so the reprs line up
        values.setdefault(m, {})[d] = (k, max(a, b), min(a, b))
    loaded = _round_trip(write_weather_csv, load_weather, values)
    assert repr(loaded) == repr(values)


def test_map_and_weather_are_plain_dicts_and_any_mapping_is_read():
    """The loaders return dicts; writers and studies take read-only views of them alike."""
    start = date(2020, 3, 1)
    metro_map = {"c1": "m", "c2": "m"}
    weather = {"m": {start + timedelta(days=d): (WEATHER_TYPES[d % 2], 60.0 + d, 40.0) for d in range(20)}}
    views = {"map": MappingProxyType(metro_map),
             "weather": MappingProxyType({m: MappingProxyType(by_day) for m, by_day in weather.items()})}
    loaded_map = _round_trip(write_metro_map_csv, load_metro_map, views["map"])
    loaded_weather = _round_trip(write_weather_csv, load_weather, views["weather"])
    assert type(loaded_map) is dict and loaded_map == metro_map
    assert type(loaded_weather) is dict and loaded_weather == weather
    assert all(type(by_day) is dict for by_day in loaded_weather.values())
    counties = [CaseSeries("c1", start, [2**k for k in range(20)]), CaseSeries("c2", start, [3] * 20)]
    metros = aggregate_to_metros(counties, views["map"])
    assert metros == aggregate_to_metros(counties, metro_map)
    window = DateInterval(start, start + timedelta(days=19))
    period_sets = {"m": initial_periods(window, [start + timedelta(days=d) for d in (4, 8, 12, 16)], "m")}
    series = {"m": metros[0]}
    assert weather_studies(views["weather"], series, period_sets) == weather_studies(weather, series, period_sets)


# Names with inner spaces and commas, so the rewritten CSV quotes them.
RENAMED = {
    "metro-01": "Dallas-Fort Worth, TX",
    "metro-01-east": "Dallas County, TX",
    "metro-02-west": "Fort Bend County, TX west",
}


def _respelled(path, names):
    """The CSV at ``path`` with cells renamed by ``names`` and padded with spaces."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            writer.writerow([f"  {names.get(c, c)} " for c in row])
    return out.getvalue()


@pytest.mark.parametrize("rename", [False, True], ids=["padded", "padded-quoted"])
def test_loaders_read_a_padded_bundle_as_the_plain_one(tmp_path, rename):
    assert main(["gen-fixtures", "--seed", "4", "--metros", "3", "--out", str(tmp_path)]) == 0
    names = RENAMED if rename else {}

    def both(filename, load):
        with open(tmp_path / filename, newline="") as fh:
            plain = fh.read()
        respelled = _respelled(tmp_path / filename, names)
        assert respelled != plain and ('"' in respelled) == rename
        return load(io.StringIO(plain)), load(io.StringIO(respelled))

    (want, want_warnings), (got, got_warnings) = both("cases.csv", load_cases)
    assert {s.region: s for s in got} == {
        names.get(s.region, s.region): replace(s, region=names.get(s.region, s.region)) for s in want
    }
    assert got_warnings == want_warnings == []
    want_map, got_map = both("metro_map.csv", load_metro_map)
    assert got_map == {names.get(c, c): names.get(m, m) for c, m in want_map.items()}
    want_weather, got_weather = both("weather.csv", load_weather)
    assert got_weather == {names.get(m, m): v for m, v in want_weather.items()}
