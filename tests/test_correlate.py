import io
import json
import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epigrowth.correlate import (
    NA_RANK,
    NA_SAMPLES,
    WEATHER_MODES,
    CorrelationReport,
    GroupResult,
    ReportCell,
    complete_metros,
    daily_log_growth,
    demographic_study,
    load_demographics,
    _weather_cell,
    load_weather,
    subcategories,
    weather_studies,
    weather_study,
    weighted_avg_growth,
    write_demographics_csv,
    write_group_report_csv,
    write_weather_csv,
    write_weather_report_csv,
)
from epigrowth.cli import main
from epigrowth.errors import ParseError, ValidationError
from epigrowth.regress import fit_multi
from epigrowth.segment import Period, PeriodSet
from epigrowth.timeseries import CaseSeries

START = date(2020, 3, 1)


def periods_over(lengths, start=START) -> PeriodSet:
    periods = []
    day = start
    for idx, ln in enumerate(lengths, start=1):
        end = day + timedelta(days=ln - 1)
        periods.append(Period(idx, day, end))
        day = end + timedelta(days=1)
    return PeriodSet("m", tuple(periods))


def avg_growth(ks, lengths) -> float:
    return weighted_avg_growth(tuple(ks), periods_over(lengths))


def test_weighted_avg_growth_hand_values():
    assert avg_growth((0.1, 0.2, 0.1, 0.2, 0.1), (10,) * 5) == pytest.approx(0.14, abs=1e-15)
    assert avg_growth((0.1, 0.4, 0.1, 0.4, 0.1), (30, 10, 30, 10, 20)) == pytest.approx(0.16, abs=1e-15)


def test_weighted_avg_growth_equal_slopes_collapse():
    assert avg_growth((0.08,) * 5, (3, 9, 27, 1, 60)) == pytest.approx(0.08, abs=1e-15)


def test_weighted_avg_growth_stays_within_slope_range():
    rng = np.random.default_rng(4)
    for _ in range(30):
        ks = rng.normal(0, 0.2, 5)
        lens = rng.integers(1, 40, 5)
        got = avg_growth(tuple(map(float, ks)), tuple(map(int, lens)))
        assert min(ks) - 1e-12 <= got <= max(ks) + 1e-12


def test_weighted_avg_growth_accepts_rates_and_periods_objects():
    # the weights are the period lengths
    rates = (0.1, 0.1, 0.2, 0.2, 0.2)
    assert weighted_avg_growth(rates, periods_over((10, 20, 30, 20, 20))) == pytest.approx(0.17, abs=1e-15)


def test_weighted_avg_growth_rejects_bad_inputs():
    with pytest.raises(ValidationError, match="period 2 has no growth rate"):
        avg_growth((0.1, None, 0.1, 0.1, 0.1), (5,) * 5)


def test_daily_log_growth_hand_values():
    series = CaseSeries("m", START, (2.0, 4.0, 8.0, 16.0))
    pairs = daily_log_growth(series, Period(1, START, START + timedelta(days=3)))
    assert [d for d, _ in pairs] == [START, START + timedelta(days=1), START + timedelta(days=2)]
    for _, g in pairs:
        assert g == pytest.approx(math.log(2.0), abs=1e-12)


def test_daily_log_growth_drops_zero_days():
    series = CaseSeries("m", START, (2.0, 0.0, 8.0, 16.0))
    pairs = daily_log_growth(series, Period(1, START, START + timedelta(days=3)))
    assert [d for d, _ in pairs] == [START + timedelta(days=2)]


def test_daily_log_growth_stays_inside_the_series():
    # a 10-day series under a 20-day period: 9 recorded day pairs, no filled ones
    series = CaseSeries("m", START, tuple(float(2**k) for k in range(10)))
    pairs = daily_log_growth(series, Period(1, START - timedelta(days=5), START + timedelta(days=14)))
    assert [d for d, _ in pairs] == [START + timedelta(days=k) for k in range(9)]
    assert all(g == pytest.approx(math.log(2.0), abs=1e-12) for _, g in pairs)


def _demo_values(rng=None, n_metros=8):
    rng = rng or np.random.default_rng(12)
    metros = [f"metro-{i:02d}" for i in range(1, n_metros + 1)]
    college = rng.uniform(20, 60, n_metros)
    postgrad = rng.uniform(5, 30, n_metros)
    values = {
        "education": {
            m: {"college": float(c), "post-grad": float(p)}
            for m, c, p in zip(metros, college, postgrad)
        }
    }
    return values, metros, college, postgrad


def test_demographic_table_reports_complete_metros():
    values, metros, _, _ = _demo_values()
    del values["education"]["metro-03"]["post-grad"]
    assert sorted(values) == ["education"]
    assert subcategories(values["education"]) == ["college", "post-grad"]
    assert "metro-03" not in complete_metros(values["education"])
    assert len(complete_metros(values["education"])) == len(metros) - 1


def test_demographic_study_finds_planted_linear_signal():
    values, metros, college, postgrad = _demo_values()
    rng = np.random.default_rng(9)
    response = {
        m: 2.0 + 0.03 * c - 0.01 * p + rng.normal(0, 1e-8)
        for m, c, p in zip(metros, college, postgrad)
    }
    report = demographic_study(values, response)
    (group,) = report.groups
    assert group.group == "education"
    assert group.r_squared is not None and group.r_squared > 0.999
    assert group.n == len(metros)
    by_key = {c.key: c for c in report.cells}
    for subcat in ("college", "post-grad"):
        cell = by_key[("education", subcat)]
        assert cell.p_value is not None and cell.p_value < 1e-4


def test_demographic_study_reports_small_groups_as_na():
    values, metros, _, _ = _demo_values(n_metros=3)
    response = {m: 0.1 for m in metros}
    report = demographic_study(values, response)
    (group,) = report.groups
    assert group.r_squared is None
    assert group.na_reason == NA_SAMPLES
    assert all(c.na_reason == NA_SAMPLES for c in report.cells)


def test_demographic_study_flags_duplicate_columns_as_rank_deficient():
    rng = np.random.default_rng(3)
    metros = [f"m{i}" for i in range(6)]
    x = rng.uniform(10, 90, 6)
    values = {"g": {m: {"a": float(v), "b": float(v)} for m, v in zip(metros, x)}}
    response = {m: float(v) * 0.01 for m, v in zip(metros, x)}
    report = demographic_study(values, response)
    (group,) = report.groups
    assert group.na_reason == NA_RANK
    by_key = {c.key: c for c in report.cells}
    # the later duplicate column is the unidentifiable one
    assert by_key[("g", "b")].na_reason == NA_RANK
    assert all(c.r_squared is None for c in report.cells)


def test_demographic_study_ignores_metro_insertion_order():
    values, metros, college, postgrad = _demo_values()
    response = {m: 2.0 + 0.03 * c for m, c in zip(metros, college)}
    reversed_values = {
        "education": dict(reversed(list(values["education"].items())))
    }
    a = demographic_study(values, response)
    b = demographic_study(reversed_values, response)
    assert a == b


def _weather_fixture():
    """One metro, five 14-day periods with per-period regimes.

    P1: strong low-temperature signal.  P2: every low identical, one bucket.
    P3: counts zeroed, no usable pairs.  P4: two usable pairs only.
    P5: signal again, one weather row missing.
    """
    lengths = (14,) * 5
    ps = periods_over(lengths)
    days = 70
    lows = []
    for d in range(days):
        if 14 <= d < 28:
            lows.append(40.0)
        else:
            lows.append(40.0 if d % 2 == 0 else 70.0)
    rng = np.random.default_rng(17)
    counts = [1000.0]
    for d in range(days - 1):
        g = (0.3 if lows[d] == 40.0 else 0.02) + rng.normal(0, 0.005)
        counts.append(counts[-1] * math.exp(g))
    for d in range(29, 42):
        counts[d] = 0.0
    for d in range(45, 56):
        counts[d] = 0.0
    series = CaseSeries("m", START, tuple(counts))
    by_day = {
        START + timedelta(days=d): ("sunny", lows[d] + 20.0, lows[d])
        for d in range(days)
        if d != 57
    }
    return {"m": by_day}, {"m": series}, {"m": ps}


def test_weather_study_low_temp_regimes():
    weather, series_by_metro, period_sets = _weather_fixture()
    report = weather_study(weather, series_by_metro, period_sets, "low-temp")
    assert report.study == "weather-low-temp"
    cells = {c.key: c for c in report.cells}
    assert set(cells) == {("m", f"P{i}") for i in range(1, 6)}

    planted = cells[("m", "P1")]
    assert planted.p_value is not None and planted.p_value < 0.05
    assert planted.r_squared is not None and planted.r_squared > 0.5

    constant = cells[("m", "P2")]
    assert constant.na_reason == NA_RANK

    empty = cells[("m", "P3")]
    assert empty.na_reason == NA_SAMPLES
    assert empty.n == 0

    tiny = cells[("m", "P4")]
    assert tiny.na_reason == NA_SAMPLES
    assert tiny.n == 2

    tail = cells[("m", "P5")]
    assert tail.p_value is not None and tail.p_value < 0.05
    assert tail.n == 12  # one weather row missing drops one pair


def test_weather_study_single_kind_is_rank_deficient_in_type_mode():
    weather, series_by_metro, period_sets = _weather_fixture()
    report = weather_study(weather, series_by_metro, period_sets, "type")
    cells = {c.key: c for c in report.cells}
    assert cells[("m", "P1")].na_reason == NA_RANK
    assert cells[("m", "P5")].na_reason == NA_RANK


def test_weather_study_rejects_bad_inputs():
    weather, series_by_metro, period_sets = _weather_fixture()
    with pytest.raises(ValidationError):
        weather_study(weather, series_by_metro, period_sets, "humidity")
    with pytest.raises(ValidationError):
        weather_study(weather, {}, period_sets, "type")


def test_weather_study_is_the_matching_report_of_weather_studies():
    weather, series_by_metro, period_sets = _weather_fixture()
    reports = weather_studies(weather, series_by_metro, period_sets)
    assert [r.study for r in reports] == [f"weather-{mode}" for mode in WEATHER_MODES]
    for mode, report in zip(WEATHER_MODES, reports):
        assert weather_study(weather, series_by_metro, period_sets, mode) == report


def _dummy_regression_cell(key, labels, y):
    """A cell as the per-mode path fitted it: 0/1 dummy columns through fit_multi."""
    n = len(y)
    levels = sorted(set(labels))
    if n < 2:
        return ReportCell(key, None, None, n, NA_SAMPLES)
    if len(levels) < 2:
        return ReportCell(key, None, None, n, NA_RANK)
    if n < len(levels) + 1:
        return ReportCell(key, None, None, n, NA_SAMPLES)
    design = np.array([[float(label == level) for level in levels[1:]] for label in labels])
    fit = fit_multi(design, np.array(y))
    return ReportCell(key, min(fit.p_values[:-1]), fit.r_squared, n)


@settings(max_examples=150, deadline=None)
@given(levels=st.integers(2, 5), data=st.data())
def test_weather_cell_matches_the_dummy_regression(levels, data):
    labels = data.draw(st.lists(st.sampled_from("abcde"[:levels]), max_size=60))
    # multiples of 1/16: a group's spread, when not 0, stays far above fit_multi's rounding
    y = data.draw(st.lists(st.integers(-400, 400).map(lambda v: v / 16), min_size=len(labels),
                           max_size=len(labels)))
    by_label: dict[str, set[float]] = {}
    for label, value in zip(labels, y):
        by_label.setdefault(label, set()).add(value)
    # an exact fit is tested on its own: fit_multi's residuals there are rounding noise
    assume(len(set(y)) <= 1 or any(len(values) > 1 for values in by_label.values()))
    cell = _weather_cell(("m", "P1"), labels, y)
    oracle = _dummy_regression_cell(("m", "P1"), labels, y)
    assert (cell.key, cell.n, cell.na_reason) == (oracle.key, oracle.n, oracle.na_reason)
    if oracle.p_value is not None:
        assert cell.p_value == pytest.approx(oracle.p_value, rel=1e-12, abs=0.0)
        # R² near 0 is 1 minus a ratio near 1, so its rounding error is absolute
        assert cell.r_squared == pytest.approx(oracle.r_squared, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("value", [0.0, math.log(1234.5)])
def test_weather_cell_constant_response_is_not_significant(value):
    labels = ["a", "b", "a", "b", "b"]
    cell = _weather_cell(("m", "P1"), labels, [value] * 5)
    assert (cell.p_value, cell.r_squared) == (1.0, 1.0)
    assert _dummy_regression_cell(("m", "P1"), labels, [value] * 5) == cell


def test_weather_cell_exact_fit_has_p_zero():
    # each group constant, the groups apart: ss_res and every se are exactly 0
    cell = _weather_cell(("m", "P1"), ["a", "b", "a", "b", "c"], [3.0, 5.0, 3.0, 5.0, 4.0])
    assert (cell.p_value, cell.r_squared, cell.na_reason) == (0.0, 1.0, None)


def test_report_cell_validation():
    with pytest.raises(ValidationError):
        ReportCell(("g", "s"), None, None, 3)  # missing na_reason
    with pytest.raises(ValidationError):
        ReportCell(("g", "s"), 0.5, 0.5, 3, "mystery")
    with pytest.raises(ValidationError):
        ReportCell(("g", "s"), 0.5, 0.5, -1)


def test_demographics_csv_roundtrip():
    values, _, _, _ = _demo_values()
    buf = io.StringIO()
    write_demographics_csv(values, buf)
    buf.seek(0)
    loaded, warnings = load_demographics(buf)
    assert warnings == []
    assert loaded == values


def test_load_demographics_flags_incomplete_metros():
    buf = io.StringIO(
        "metro,group,subcategory,value\n"
        "m1,education,college,40\n"
        "m1,education,post-grad,10\n"
        "m2,education,college,30\n"
    )
    table, warnings = load_demographics(buf)
    assert complete_metros(table["education"]) == ["m1"]
    assert len(warnings) == 1
    assert "m2" in warnings[0] and "post-grad" in warnings[0]


@pytest.mark.parametrize(
    "body, exc",
    [
        ("metro,group,subcategory\n", ParseError),
        ("metro,group,subcategory,value\nm1,education,college,abc\n", ParseError),
        ("metro,group,subcategory,value\nm1,education,college,140\n", ValidationError),
        ("metro,group,subcategory,value\nm1,education,college,40\nm1,education,college,41\n", ValidationError),
        ("", ParseError),
    ],
)
def test_load_demographics_rejects_bad_files(body, exc):
    with pytest.raises(exc):
        load_demographics(io.StringIO(body))


def test_weather_csv_roundtrip():
    table = {"m": {START + timedelta(days=d): ("rainy", 55.5, 41.25) for d in range(3)}}
    buf = io.StringIO()
    write_weather_csv(table, buf)
    buf.seek(0)
    assert load_weather(buf) == table


def test_loaders_strip_and_lowercase_the_header():
    weather = load_weather(io.StringIO("Metro, Date,Type,High,Low\nm,2020-03-01,rainy,55,41\n"))
    assert weather == {"m": {date(2020, 3, 1): ("rainy", 55.0, 41.0)}}
    demo, _ = load_demographics(io.StringIO(" METRO,Group,subcategory ,Value\nm,age,young,40\n"))
    assert demo == {"age": {"m": {"young": 40.0}}}


def test_load_weather_rejects_bad_rows():
    header = "metro,date,type,high,low\n"
    with pytest.raises(ParseError):
        load_weather(io.StringIO("metro,day,type,high,low\n"))
    with pytest.raises(ParseError):
        load_weather(io.StringIO(header + "m,2020-13-01,sunny,60,40\n"))
    with pytest.raises(ParseError):
        load_weather(io.StringIO(header + "m,2020-03-01,sunny,warm,40\n"))
    with pytest.raises(ValidationError):
        load_weather(io.StringIO(header + "m,2020-03-01,sunny,40,60\n"))
    with pytest.raises(ValidationError, match="line 2: temperatures must be finite"):
        load_weather(io.StringIO(header + "m,2020-03-01,sunny,nan,40\n"))
    with pytest.raises(ValidationError, match="line 2: unknown weather type 'hail'"):
        load_weather(io.StringIO(header + "m,2020-03-01,hail,60,40\n"))


def test_weather_row_validation():
    # each row is checked where it stands; the error names its line
    good = "metro,date,type,high,low\nm,2020-03-01,sunny,50,50\n"
    assert load_weather(io.StringIO(good))["m"][date(2020, 3, 1)] == ("sunny", 50.0, 50.0)
    with pytest.raises(ValidationError, match="line 3: unknown weather type 'hail'"):
        load_weather(io.StringIO(good + "m,2020-03-02,hail,50,40\n"))
    with pytest.raises(ValidationError, match="line 3: m 2020-03-02: high below low"):
        load_weather(io.StringIO(good + "m,2020-03-02,sunny,40,50\n"))
    with pytest.raises(ValidationError, match="line 3: temperatures must be finite"):
        load_weather(io.StringIO(good + "m,2020-03-02,sunny,60,-inf\n"))


def test_weather_table_rejects_duplicates_and_looks_up():
    header = "metro,date,type,high,low\n"
    row = "m,2020-03-01,sunny,60,40\n"
    with pytest.raises(ValidationError, match="duplicate weather row for m on 2020-03-01"):
        load_weather(io.StringIO(header + row + "m,2020-03-01,rainy,55,45\n"))
    # a bad row later in the file is reported before the duplicate
    with pytest.raises(ParseError, match="line 4: bad temperature"):
        load_weather(io.StringIO(header + row + row + "n,2020-03-01,sunny,warm,40\n"))
    by_day = load_weather(io.StringIO(header + row + "n,2020-03-01,rainy,55,45\n"))["m"]
    assert by_day.get(date(2020, 3, 1)) == ("sunny", 60.0, 40.0)
    assert by_day.get(date(2020, 3, 2)) is None


def test_group_report_spells_na():
    report = CorrelationReport(
        "demographic",
        (
            ReportCell(("education", "college"), 0.25, 0.5, 6),
            ReportCell(("income", "high"), None, None, 2, NA_SAMPLES),
        ),
        (
            GroupResult("education", 0.5, 6),
            GroupResult("income", None, 2, NA_SAMPLES),
        ),
    )
    buf = io.StringIO()
    write_group_report_csv(report, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "group,subcategory,p_value,group_r2"
    assert lines[1] == "education,college,0.25,0.5"
    assert lines[2] == "income,high,NA,NA"
    with pytest.raises(ValidationError):
        write_weather_report_csv(report, io.StringIO())


def test_weather_report_rows_per_metro():
    cells = tuple(
        ReportCell(("m1", f"P{i}"), 0.5, 0.1, 5) if i != 3 else ReportCell(("m1", "P3"), None, None, 0, NA_SAMPLES)
        for i in range(1, 6)
    )
    report = CorrelationReport("weather-type", cells)
    buf = io.StringIO()
    write_weather_report_csv(report, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "metro,P1,P2,P3,P4,P5"
    assert lines[1] == "m1,0.5,0.5,NA,0.5,0.5"
    with pytest.raises(ValidationError):
        write_group_report_csv(report, io.StringIO())


def test_correlate_report_json_uses_nulls_for_na(tmp_path):
    out = str(tmp_path)
    files = ["--cases", f"{out}/cases.csv", "--metro-map", f"{out}/metro_map.csv"]
    assert main(["gen-fixtures", "--seed", "0", "--metros", "3", "--out", out]) == 0
    assert main(["segment", *files, "--out", out]) == 0
    # three metros are too few to fit any demographic group
    assert main(["correlate", *files, "--periods", f"{out}/periods.csv",
                 "--demographics", f"{out}/demographics.csv", "--out", out]) == 0
    with open(f"{out}/correlate_report.json") as fh:
        d = json.load(fh)["studies"]["demographic"]
    assert d["study"] == "demographic"
    assert set(d["cells"][0]) == {"key", "p_value", "r_squared", "n", "na_reason"}
    assert d["cells"][0]["p_value"] is None
    assert d["cells"][0]["na_reason"] == NA_SAMPLES
    assert d["groups"][0]["r_squared"] is None
