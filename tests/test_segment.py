import csv
import hashlib
import io
import itertools
import math
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epigrowth import segment
from epigrowth.cli import main
from epigrowth.errors import ConfigError, InsufficientDataError, StateError, ValidationError
from epigrowth.regress import SimpleFit, _line_fit
from epigrowth.segment import (
    DEFAULT_ANCHOR_OFFSETS,
    DEFAULT_ANNOUNCEMENT,
    DEFAULT_MIN_PERIOD,
    DEFAULT_SEARCH_RADIUS,
    DEFAULT_WINDOW,
    Period,
    PeriodSet,
    default_anchors,
    initial_periods,
    load_periods_csv,
    optimize_boundaries,
    protocol_followed_date,
    write_periods_csv,
    _TIE_TOL,
    _WindowFits,
)
from epigrowth.timeseries import (
    CaseSeries,
    DateInterval,
    aggregate_to_metros,
    load_cases,
    load_metro_map,
    to_log_series,
)
from synth_counts import piecewise_log_linear_counts, window_objective
from test_cli import _use_cores


def test_default_anchors_follow_announcement_offsets():
    anchors = default_anchors(DEFAULT_ANNOUNCEMENT)
    assert anchors == (
        date(2020, 4, 1),
        date(2020, 4, 20),
        date(2020, 5, 10),
        date(2020, 6, 1),
    )
    assert DEFAULT_ANCHOR_OFFSETS == (3, 22, 42, 64)


def test_initial_periods_partition_default_window():
    ps = initial_periods(DEFAULT_WINDOW, default_anchors(DEFAULT_ANNOUNCEMENT))
    assert ps.lengths() == (31, 19, 20, 22, 30)
    assert ps.window == DEFAULT_WINDOW
    # contiguity is enforced by the PeriodSet type itself
    for prev, cur in zip(ps.periods, ps.periods[1:]):
        assert cur.start == prev.end + timedelta(days=1)


def test_initial_periods_reject_anchor_outside_window():
    bad = (date(2020, 2, 1), date(2020, 4, 20), date(2020, 5, 10), date(2020, 6, 1))
    with pytest.raises(ValidationError):
        initial_periods(DEFAULT_WINDOW, bad)


def test_initial_periods_reject_unsorted_anchors():
    bad = (date(2020, 4, 20), date(2020, 4, 1), date(2020, 5, 10), date(2020, 6, 1))
    with pytest.raises(ValidationError):
        initial_periods(DEFAULT_WINDOW, bad)


def test_period_set_requires_contiguous_cover():
    p1 = Period(1, date(2020, 3, 1), date(2020, 3, 10))
    gap = Period(2, date(2020, 3, 12), date(2020, 3, 20))
    rest = [
        Period(i, date(2020, 3, 21 + 2 * (i - 3)), date(2020, 3, 22 + 2 * (i - 3)))
        for i in (3, 4, 5)
    ]
    with pytest.raises(ValidationError):
        PeriodSet("m", (p1, gap, *rest))


def _series_with_breaks(seed: int, window: DateInterval, breaks, slopes, sigma=0.0):
    """Counts that are exactly (or noisily) piecewise log-linear on the window."""
    cuts = [0, *breaks, window.days]
    lengths = [b - a for a, b in zip(cuts, cuts[1:])]
    rng = np.random.default_rng(seed) if sigma else None
    counts = piecewise_log_linear_counts(
        5000.0, slopes, lengths, rng=rng, noise_sigma=sigma
    )
    return CaseSeries("m", window.start, counts)


WINDOW = DateInterval(date(2020, 3, 1), date(2020, 5, 9))  # 70 days
TRUE_BREAKS = (14, 28, 42, 56)
SLOPES = (0.12, -0.05, 0.1, -0.04, 0.08)


def anchors_at(window: DateInterval, offsets) -> tuple[date, ...]:
    return tuple(window.start + timedelta(days=o) for o in offsets)


def test_optimizer_recovers_exact_breakpoints():
    series = _series_with_breaks(0, WINDOW, TRUE_BREAKS, SLOPES)
    shifted = anchors_at(WINDOW, (11, 31, 40, 59))  # start a few days off
    ps = optimize_boundaries(series, initial_periods(WINDOW, shifted), search_radius=6)
    found = tuple((p.start - WINDOW.start).days for p in ps.periods[1:])
    assert found == TRUE_BREAKS
    assert all(p.fit is not None and p.fit.r_squared > 0.999 for p in ps.periods)


def test_optimizer_never_leaves_the_search_box():
    series = _series_with_breaks(1, WINDOW, TRUE_BREAKS, SLOPES, sigma=0.02)
    offsets = (10, 30, 44, 58)
    radius = 3
    ps = optimize_boundaries(
        series, initial_periods(WINDOW, anchors_at(WINDOW, offsets)), search_radius=radius
    )
    for p, o in zip(ps.periods[1:], offsets):
        assert abs((p.start - WINDOW.start).days - o) <= radius


def test_optimizer_respects_min_period_length():
    series = _series_with_breaks(2, WINDOW, TRUE_BREAKS, SLOPES, sigma=0.02)
    ps = optimize_boundaries(
        series,
        initial_periods(WINDOW, anchors_at(WINDOW, (12, 30, 44, 58))),
        search_radius=14,
        min_period_length=9,
    )
    assert all(length >= 9 for length in ps.lengths())


def test_optimizer_matches_exhaustive_search_on_small_box():
    series = _series_with_breaks(3, WINDOW, TRUE_BREAKS, SLOPES, sigma=0.02)
    offsets = (13, 29, 43, 57)
    initial = initial_periods(WINDOW, anchors_at(WINDOW, offsets))
    ps = optimize_boundaries(series, initial, search_radius=2, min_period_length=7)

    from epigrowth.segment import _WindowFits

    fits = _WindowFits(series, WINDOW)
    best = -math.inf
    for combo in itertools.product(*[range(o - 2, o + 3) for o in offsets]):
        if any(b - a < 7 for a, b in zip((0, *combo), (*combo, WINDOW.days))):
            continue
        best = max(best, window_objective(fits, list(combo)))
    got = window_objective(fits, [(p.start - WINDOW.start).days for p in ps.periods[1:]])
    assert got == pytest.approx(best, abs=1e-9)


def _reference_optimize(series, initial, search_radius, min_period_length):
    """The coordinate ascent the DP replaced, uncached: every trial refits all five periods.

    At most 100 sweeps.  Returns the cut days and the five (slope, intercept, r2) fits.
    """
    window = initial.window
    x, y = to_log_series(series, window)
    offset = (window.start - series.start_date).days
    day_rel = np.array([d - offset for d in x], dtype=int)

    def segment_fit(lo, hi):
        a, b = np.searchsorted(day_rel, (lo, hi))
        if b - a < 2:
            return None
        return _line_fit(x[a:b], y[a:b])

    def objective(bounds):
        cuts = [0, *bounds, window.days]
        total = 0.0
        for lo, hi in zip(cuts, cuts[1:]):
            fit = segment_fit(lo, hi)
            if fit is None:
                return -math.inf
            total += fit[2] * (hi - lo)
        return total / window.days

    init = [(p.start - window.start).days for p in initial.periods[1:]]
    bounds = list(init)
    if not math.isfinite(objective(bounds)):
        raise InsufficientDataError("initial periods leave an unfittable segment")
    for _ in range(100):
        moved = False
        for j in range(4):
            left = bounds[j - 1] if j > 0 else 0
            right = bounds[j + 1] if j < 3 else window.days
            lo = max(init[j] - search_radius, left + min_period_length)
            hi = min(init[j] + search_radius, right - min_period_length)
            best_b, best_obj = bounds[j], -math.inf
            for b in range(lo, hi + 1):
                obj = objective([*bounds[:j], b, *bounds[j + 1 :]])
                if obj > best_obj:
                    best_obj, best_b = obj, b
            if math.isfinite(best_obj) and best_b != bounds[j]:
                bounds[j] = best_b
                moved = True
        if not moved:
            break
    cuts = [0, *bounds, window.days]
    fits = [segment_fit(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    if any(f is None for f in fits):
        raise InsufficientDataError("an optimized period is unfittable")
    return cuts, fits


@st.composite
def _segmentation_inputs(draw, max_radius=14):
    """A noisy piecewise log-linear series, maybe with zero days, and a search set-up."""
    days = draw(st.integers(25, 80))
    lead = draw(st.integers(0, 5))  # series days before the window
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    true_cuts = np.sort(rng.choice(np.arange(1, lead + days), size=4, replace=False))
    lengths = np.diff([0, *true_cuts, lead + days]).tolist()
    slopes = rng.uniform(-0.2, 0.2, size=5).tolist()
    sigma = draw(st.sampled_from([0.0, 0.01, 0.1, 0.5]))
    counts = np.array(piecewise_log_linear_counts(500.0, slopes, lengths, rng, sigma))
    counts[rng.random(counts.size) < draw(st.sampled_from([0.0, 0.0, 0.1, 0.3, 0.6]))] = 0.0
    start = date(2020, 3, 1)
    window = DateInterval(start + timedelta(days=lead), start + timedelta(days=lead + days - 1))
    offsets = draw(
        st.sets(st.integers(2, days - 2), min_size=4, max_size=4)
        .map(sorted)
        .filter(lambda o: min(np.diff(o)) >= 2)
    )
    min_period = draw(st.integers(1, min(10, days // 5)))
    radius = draw(st.integers(0, max_radius))
    series = CaseSeries("m", start, tuple(counts.tolist()))
    return series, initial_periods(window, anchors_at(window, offsets)), radius, min_period


def _bits(value: float) -> int:
    return int(np.array(value, dtype=np.float64).view(np.int64))


def _total(series, window, cuts) -> float:
    """Exact (two-pass) summed R2 * days of the periods cut at ``cuts``."""
    return window_objective(_WindowFits(series, window), cuts[1:-1]) * window.days


def _exhaustive(series, initial, radius, min_period):
    """(best summed R2 * days, earliest boundaries within the tie tolerance), by brute force."""
    window, init = initial.window, initial.cuts()
    fits = _WindowFits(series, window)
    boxes = [range(max(b - radius, 1), min(b + radius, window.days - 1) + 1) for b in init[1:-1]]
    found = []
    for combo in itertools.product(*boxes):  # lexicographic order
        cuts = (0, *combo, window.days)
        if all(hi - lo >= min(min_period, length)
               for lo, hi, length in zip(cuts, cuts[1:], initial.lengths())):
            found.append((window_objective(fits, combo) * window.days, combo))
    best = max(total for total, _ in found)
    return best, next(combo for total, combo in found if total >= best - _TIE_TOL)


@settings(max_examples=150, deadline=None)
@given(_segmentation_inputs())
def test_optimizer_is_never_below_the_reference_ascent(case):
    series, initial, radius, min_period = case
    try:
        cuts, _ = _reference_optimize(series, initial, radius, min_period)
    except InsufficientDataError:
        with pytest.raises(InsufficientDataError):
            optimize_boundaries(series, initial, radius, min_period)
        return
    ps = optimize_boundaries(series, initial, radius, min_period)
    window = initial.window
    assert _total(series, window, ps.cuts()) >= _total(series, window, cuts) - _TIE_TOL
    # the written fits are _line_fit's on the chosen stretches, bit for bit
    x, y = to_log_series(series, window)
    days = x - (window.start - series.start_date).days
    for p, lo, hi in zip(ps.periods, ps.cuts(), ps.cuts()[1:]):
        inside = (days >= lo) & (days < hi)
        want = _line_fit(x[inside], y[inside])
        assert [_bits(v) for v in (p.fit.slope, p.fit.intercept, p.fit.r_squared)] == [
            _bits(v) for v in want
        ]


@settings(max_examples=100, deadline=None)
@given(_segmentation_inputs(max_radius=2))
def test_optimizer_is_the_earliest_exhaustive_optimum_on_small_boxes(case):
    series, initial, radius, min_period = case
    try:
        ps = optimize_boundaries(series, initial, radius, min_period)
    except InsufficientDataError:
        return  # the initial periods are unfittable
    best, earliest = _exhaustive(series, initial, radius, min_period)
    assert _total(series, initial.window, ps.cuts()) >= best - _TIE_TOL
    assert tuple(ps.cuts()[1:-1]) == earliest


@pytest.mark.parametrize("seed", [0, 3, 7, 42])
def test_optimizer_is_never_below_the_ascent_on_fixture_metros(tmp_path, seed):
    assert main(["gen-fixtures", "--seed", str(seed), "--metros", "6", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "cases.csv", newline="") as cases, open(tmp_path / "metro_map.csv") as mm:
        metros = aggregate_to_metros(load_cases(cases)[0], load_metro_map(mm))
    window = DEFAULT_WINDOW
    for series in metros:
        initial = initial_periods(window, default_anchors(), series.region)
        cuts, _ = _reference_optimize(series, initial, DEFAULT_SEARCH_RADIUS, DEFAULT_MIN_PERIOD)
        ps = optimize_boundaries(series, initial)
        assert _total(series, window, ps.cuts()) >= _total(series, window, cuts) - _TIE_TOL


def test_optimizer_keeps_periods_the_anchors_left_short():
    # true breaks 10, 12, 40, 56; the anchors leave period 2 four days long, under the minimum
    breaks = (10, 12, 40, 56)
    series = _series_with_breaks(5, WINDOW, breaks, SLOPES)
    initial = initial_periods(WINDOW, anchors_at(WINDOW, (10, 14, 40, 56)))
    ps = optimize_boundaries(series, initial, search_radius=3, min_period_length=7)
    # period 2 may stay at its anchored 4 days but not shrink to the true 2
    assert ps.lengths()[1] == 4
    assert all(n >= min(7, m) for n, m in zip(ps.lengths(), initial.lengths()))
    assert tuple(ps.cuts()[1:-1]) == _exhaustive(series, initial, 3, 7)[1]
    cuts, _ = _reference_optimize(series, initial, 3, 7)
    assert _total(series, WINDOW, ps.cuts()) >= _total(series, WINDOW, cuts) - _TIE_TOL


def test_constant_counts_score_r2_one():
    # 1234.5 repeated: the mean of its logs rounds, which once made _line_fit's R2 read 0
    series = CaseSeries("m", WINDOW.start, (1234.5,) * WINDOW.days)
    fits = _WindowFits(series, WINDOW)
    starts, ends = np.arange(0, 60), np.arange(2, 71)
    lengths = ends[None, :] - starts[:, None]
    scores = fits.scores(starts, ends, 2)
    assert np.array_equal(scores[lengths >= 2], lengths[lengths >= 2].astype(float))
    # every placement ties, so the earliest boundaries win
    initial = initial_periods(WINDOW, anchors_at(WINDOW, TRUE_BREAKS))
    ps = optimize_boundaries(series, initial, search_radius=3, min_period_length=7)
    assert ps.cuts() == [0, 11, 25, 39, 53, 70]
    assert all(p.fit.r_squared == 1.0 for p in ps.periods)


def test_segment_with_a_huge_radius_allocates_no_more_than_the_window(tmp_path):
    out = str(tmp_path)
    assert main(["gen-fixtures", "--seed", "0", "--metros", "2", "--out", out]) == 0
    argv = ["segment", "--cases", f"{out}/cases.csv", "--metro-map", f"{out}/metro_map.csv",
            "--radius", "100000000000", "--out", out]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the score arrays are window x window at most; one float per radius day would be 800 GB
    assert peak < 64 * DEFAULT_WINDOW.days**2 * 8


# segment runs in process, so the core count must not reach its bytes.
@pytest.mark.parametrize("cores", [1, 2, 3])
def test_segment_output_bytes_are_pinned(tmp_path, monkeypatch, cores):
    _use_cores(monkeypatch, cores)
    out = str(tmp_path)
    assert main(["gen-fixtures", "--seed", "0", "--metros", "4", "--out", out]) == 0
    cases, metro_map = tmp_path / "cases.csv", tmp_path / "metro_map.csv"
    argv = ["segment", "--cases", str(cases), "--metro-map", str(metro_map), "--out", out]
    assert main(argv) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("periods.csv", "protocol.csv")
    }
    assert digests == {
        "periods.csv": "07085dbaa7a8693c218b1dc0985e6134d8b818eff7450aeb280e427f79097045",
        "protocol.csv": "678699a8422660d55dd311c7f8c73002a3cd0addf7fba493d66059f6b713c90b",
    }


def test_optimizer_requires_fittable_initial_segments():
    zeros = CaseSeries("m", WINDOW.start, (0,) * WINDOW.days)
    with pytest.raises(InsufficientDataError):
        optimize_boundaries(zeros, initial_periods(WINDOW, anchors_at(WINDOW, (14, 28, 42, 56))))


def test_optimizer_rejects_bad_config():
    series = _series_with_breaks(4, WINDOW, TRUE_BREAKS, SLOPES)
    initial = initial_periods(WINDOW, anchors_at(WINDOW, TRUE_BREAKS))
    with pytest.raises(ConfigError):
        optimize_boundaries(series, initial, search_radius=-1)
    with pytest.raises(ConfigError):
        optimize_boundaries(series, initial, min_period_length=0)


def _fitted_periods(slopes, start=date(2020, 4, 1), length=10) -> PeriodSet:
    periods = []
    cursor = start
    for i, k in enumerate(slopes, start=1):
        end = cursor + timedelta(days=length - 1)
        periods.append(Period(i, cursor, end, SimpleFit(k, 0.0, 0.9)))
        cursor = end + timedelta(days=1)
    return PeriodSet("m", tuple(periods))


def test_protocol_date_is_first_qualifying_drop():
    ps = _fitted_periods((0.1, 0.12, 0.05, 0.2, 0.01), start=date(2020, 4, 1))
    call = protocol_followed_date(ps, announcement=date(2020, 4, 5))
    # period 2 starts after the announcement but its slope rose; period 3 drops
    assert call.date == ps.periods[2].start
    assert "period 3" in call.note


def test_protocol_date_none_when_slopes_never_drop():
    ps = _fitted_periods((0.01, 0.02, 0.03, 0.04, 0.05))
    call = protocol_followed_date(ps, announcement=date(2020, 4, 1))
    assert call.date is None
    assert call.note


def test_protocol_requires_fitted_periods():
    ps = _fitted_periods((0.1,) * 5)
    unfitted = PeriodSet(
        "m", tuple(Period(p.index, p.start, p.end) for p in ps.periods)
    )
    with pytest.raises(StateError):
        protocol_followed_date(unfitted)


def test_periods_csv_roundtrip():
    series = _series_with_breaks(5, WINDOW, TRUE_BREAKS, SLOPES)
    ps = optimize_boundaries(
        series, initial_periods(WINDOW, anchors_at(WINDOW, (14, 28, 42, 56))), search_radius=2
    )
    buf = io.StringIO()
    write_periods_csv([ps], buf)
    text = buf.getvalue()
    # row-level round trip is lossless, repr floats included
    rows = list(csv.reader(io.StringIO(text)))[1:]
    assert [
        (r[0], int(r[1]), *map(date.fromisoformat, r[2:4]), *map(float, r[4:])) for r in rows
    ] == [
        (ps.metro, p.index, p.start, p.end, p.fit.slope, p.fit.intercept, p.fit.r_squared)
        for p in ps.periods
    ]
    restored = load_periods_csv(io.StringIO(text))
    assert set(restored) == {"m"}
    header, *lines = text.splitlines(keepends=True)
    assert load_periods_csv(io.StringIO(header + "".join(reversed(lines)))) == restored
    got = restored["m"]
    assert got.lengths() == ps.lengths()
    assert [p.start for p in got.periods] == [p.start for p in ps.periods]
    # reconstruction carries boundaries only; fits stay unset
    assert all(p.fit is None for p in got.periods)


def test_periods_csv_rejects_missing_periods():
    buf = io.StringIO()
    series = _series_with_breaks(6, WINDOW, TRUE_BREAKS, SLOPES)
    ps = optimize_boundaries(
        series, initial_periods(WINDOW, anchors_at(WINDOW, (14, 28, 42, 56))), search_radius=2
    )
    write_periods_csv([ps], buf)
    text = buf.getvalue()
    truncated = text[: text.rindex("\n", 0, -1) + 1]  # drop one period
    assert truncated.count("\n") == text.count("\n") - 1
    with pytest.raises(ValidationError):
        load_periods_csv(io.StringIO(truncated))
