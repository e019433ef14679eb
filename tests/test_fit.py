import csv
import dataclasses
import math
import pickle
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from epigrowth import sir
from epigrowth.errors import ConfigError, InsufficientDataError, PipelineError, ValidationError
from epigrowth.fit import (
    DEFAULT_S0_SCALE,
    SearchConfig,
    TuneJob,
    _grid_eval,
    _linspace_rows,
    beta_grid,
    data_growth_rates,
    default_init,
    discrepancy,
    gamma_grid,
    sim_growth_rates,
    tune,
    tune_batch,
    weighted_mean,
)
from epigrowth.fixtures import (
    FIXTURE_MU,
    FIXTURE_TAU1,
    FIXTURE_TAU2,
    make_bundle,
)
from epigrowth.cli import FIT_MODELS, _fit_chunk, main
from epigrowth.regress import _ols_slope, fit_simple
from epigrowth.segment import Period, PeriodSet, load_periods_csv
from epigrowth.sir import (
    VARIANTS,
    InflowSeries,
    PiecewiseParams,
    SirState,
    Trajectory,
    _commit,
    _euler_days,
    simulate,
)
from epigrowth.timeseries import CaseSeries, aggregate_to_metros, load_cases, load_metro_map
from synth_counts import piecewise_log_linear_counts

START = date(2020, 3, 1)


def periods_over(lengths, start=START) -> PeriodSet:
    periods = []
    day = start
    for idx, ln in enumerate(lengths, start=1):
        end = day + timedelta(days=ln - 1)
        periods.append(Period(idx, day, end))
        day = end + timedelta(days=1)
    return PeriodSet("m", tuple(periods))


def test_discrepancy_equal_lengths_averages_the_gaps():
    ps = periods_over((20,) * 5)
    data = (0.0,) * 5
    sim = (0.001, 0.002, 0.003, 0.004, 0.005)
    abs_diff, weighted_error = discrepancy(sim, data, ps)
    assert weighted_error == pytest.approx(3e-3, abs=1e-15)
    assert 100.0 * weighted_error == pytest.approx(0.3, abs=1e-12)
    assert abs_diff == (0.001, 0.002, 0.003, 0.004, 0.005)


def test_discrepancy_weights_by_period_length():
    lengths = (10, 20, 30, 20, 20)
    ps = periods_over(lengths)
    data = (0.0,) * 5
    sim = (0.005, 0.0, 0.0, 0.0, 0.0)
    _, weighted_error = discrepancy(sim, data, ps)
    assert weighted_error == pytest.approx(5e-4, abs=1e-15)
    assert 100.0 * weighted_error == pytest.approx(0.05, abs=1e-12)


def test_discrepancy_of_identical_rates_is_zero():
    ps = periods_over((10, 20, 30, 20, 20))
    a = (0.12, -0.05, 0.1, -0.04, 0.08)
    assert discrepancy(a, a, ps)[1] == 0.0


def test_discrepancy_rejects_missing_rates():
    ps = periods_over((7,) * 5)
    full = (0.1,) * 5
    holed = (0.1, None, 0.1, 0.1, 0.1)
    with pytest.raises(ValidationError, match="period 2"):
        discrepancy(holed, full, ps)
    with pytest.raises(ValidationError):
        discrepancy(full, holed, ps)


def test_discrepancy_is_symmetric():
    rng = np.random.default_rng(7)
    ps = periods_over((10, 20, 30, 20, 20))
    for _ in range(20):
        a = tuple(rng.normal(0, 0.1, 5))
        b = tuple(rng.normal(0, 0.1, 5))
        assert discrepancy(b, a, ps)[1] == discrepancy(a, b, ps)[1]


def test_discrepancy_invariant_under_uniform_length_scaling():
    base = (10, 20, 30, 20, 20)
    a = (0.12, -0.05, 0.1, -0.04, 0.08)
    b = (0.1, 0.0, 0.09, -0.01, 0.03)
    _, e1 = discrepancy(a, b, periods_over(base))
    _, e2 = discrepancy(a, b, periods_over(tuple(2 * n for n in base)))
    assert e2 == e1
    _, e3 = discrepancy(a, b, periods_over(tuple(3 * n for n in base)))
    assert e3 == pytest.approx(e1, rel=1e-12)


def test_default_init_seeds_from_first_positive_windowed_count():
    ps = periods_over((7,) * 5)
    counts = (0.0, 0.0, 3.0, 5.0) + (6.0,) * 31
    st = default_init(CaseSeries("m", START, counts), ps)
    assert (st.s, st.i, st.r) == (DEFAULT_S0_SCALE * 3.0, 3.0, 0.0)


def test_default_init_ignores_counts_before_the_window():
    ps = periods_over((7,) * 5)
    series = CaseSeries("m", START - timedelta(days=2), (9.0, 9.0, 0.0, 4.0) + (6.0,) * 33)
    assert default_init(series, ps).i == 4.0


def test_default_init_requires_a_positive_count():
    ps = periods_over((7,) * 5)
    with pytest.raises(InsufficientDataError):
        default_init(CaseSeries("m", START, (0.0,) * 35), ps)


def test_data_growth_rates_recover_piecewise_slopes():
    lengths = (10, 20, 30, 20, 20)
    slopes = (0.12, -0.05, 0.1, -0.04, 0.08)
    counts = piecewise_log_linear_counts(5000.0, slopes, lengths)
    got = data_growth_rates(CaseSeries("m", START, counts), periods_over(lengths))
    for k, want in zip(got, slopes):
        assert k == pytest.approx(want, abs=1e-9)


def test_data_growth_rates_flag_unfittable_periods():
    counts = list(piecewise_log_linear_counts(100.0, (0.1,) * 5, (7,) * 5))
    counts[14:21] = [0.0] * 7
    got = data_growth_rates(CaseSeries("m", START, tuple(counts)), periods_over((7,) * 5))
    assert got[2] is None
    assert all(k is not None for i, k in enumerate(got) if i != 2)


def test_sim_growth_rates_count_positive_days():
    ps = periods_over((7,) * 5)
    params = PiecewiseParams([2e-6] * 5, [0.05] * 5)
    traj = simulate("original", params, SirState(1e5, 10.0, 0.0), ps)
    got = sim_growth_rates(traj, ps)
    assert all(k is not None and k > 0 for k in got)


def test_beta_grid_auto_scales_to_initial_susceptibles():
    cfg = SearchConfig()
    g = beta_grid(cfg, 2e5)
    assert g[0] == 0.0
    assert g[-1] == pytest.approx(1 / 2e5)
    assert len(g) == cfg.points
    assert len(gamma_grid(cfg)) == cfg.points
    with pytest.raises(ConfigError):
        beta_grid(cfg, 0.0)


def test_an_s0_whose_reciprocal_overflows_has_no_beta_range():
    # Below about 5.6e-309, 1 / S0 is inf: the grid would hold 0 * inf, and tune would end with
    # "no feasible (beta, gamma) grid point" instead of naming S0.
    with pytest.raises(ConfigError, match="reciprocal is finite, got 1e-310"):
        beta_grid(SearchConfig(), 1e-310)
    lengths = (10, 12, 14, 12, 10)
    series = CaseSeries("m", START, tuple(5e-320 * (1 + d % 3) for d in range(sum(lengths))))
    with pytest.raises(ConfigError, match="reciprocal is finite, got 4.999944336e-315"):
        tune("delayed", series, periods_over(lengths))


def test_search_config_rejects_bad_ranges():
    with pytest.raises(ConfigError):
        SearchConfig(points=0)
    with pytest.raises(ConfigError):
        SearchConfig(refinement_levels=-1)
    # The ranges are fixed: beta in [0, 1/S0], gamma in [0, 1].
    assert [f.name for f in dataclasses.fields(SearchConfig)] == ["points", "refinement_levels"]


def test_search_config_takes_the_largest_grid_one_float64_array_can_hold():
    largest = math.isqrt(np.iinfo(np.intp).max // 8)
    assert SearchConfig(points=largest).points == largest
    with pytest.raises(ConfigError, match="too large"):
        SearchConfig(points=largest + 1)


def _simulated_series(beta=2e-6, gamma=0.05, lengths=(7,) * 5):
    ps = periods_over(lengths)
    params = PiecewiseParams([beta] * 5, [gamma] * 5)
    init = SirState(1e5, 10.0, 0.0)
    traj = simulate("original", params, init, ps)
    return CaseSeries("m", START, traj.i), ps, init


def test_tune_rejects_unknown_model():
    series, ps, _ = _simulated_series()
    with pytest.raises(ConfigError):
        tune("sirs", series, ps)


def test_tune_tourism_requires_long_enough_inflow():
    series, ps, _ = _simulated_series()
    cfg = SearchConfig(points=3, refinement_levels=0)
    with pytest.raises(ConfigError):
        tune("tourism", series, ps, cfg)
    with pytest.raises(ConfigError):
        tune("tourism", series, ps, cfg, inflow=InflowSeries((1.0,) * 10))


def test_tune_needs_a_growth_rate_in_every_period():
    counts = list(piecewise_log_linear_counts(100.0, (0.1,) * 5, (7,) * 5))
    counts[21:28] = [0.0] * 7
    with pytest.raises(InsufficientDataError):
        tune("original", CaseSeries("m", START, tuple(counts)), periods_over((7,) * 5))


def test_tune_single_point_grid_returns_that_point():
    # A one-point grid is (0, 0), the low end of both ranges.
    series, ps, init = _simulated_series(0.0, 0.0)
    cfg = SearchConfig(points=1, refinement_levels=0)
    res = tune("original", series, ps, cfg, init=init)
    assert res.params.beta == (0.0,) * 5
    assert res.params.gamma == (0.0,) * 5
    assert res.as_percent == 0.0


def test_tune_shared_beta_locks_beta_across_periods():
    series, ps, init = _simulated_series()
    cfg = SearchConfig(points=15, refinement_levels=1)
    res = tune("original", series, ps, cfg, init=init, shared_beta=True)
    assert len(set(res.params.beta)) == 1


def test_tune_refinement_never_hurts():
    lengths = (10, 20, 30, 20, 20)
    slopes = (0.12, -0.05, 0.1, -0.04, 0.08)
    counts = piecewise_log_linear_counts(
        5000.0, slopes, lengths, rng=np.random.default_rng(3), noise_sigma=0.02
    )
    series = CaseSeries("m", START, counts)
    ps = periods_over(lengths)
    coarse = SearchConfig(points=21, refinement_levels=0)
    refined = SearchConfig(points=21, refinement_levels=2)
    res0 = tune("original", series, ps, coarse)
    res2 = tune("original", series, ps, refined)
    assert res2.weighted_error <= res0.weighted_error + 1e-9


def test_tune_recovers_generating_parameters_exactly():
    bundle = make_bundle(5, n_metros=1, round_counts=False)
    series = aggregate_to_metros(bundle.cases, bundle.metro_map)[0]
    truth = bundle.truths[series.region]
    ps = PeriodSet(series.region, bundle.periods.periods)
    res = tune(
        "reinfect", series, ps,
        tau1=FIXTURE_TAU1, tau2=FIXTURE_TAU2, mu=FIXTURE_MU,
    )
    assert res.as_percent == 0.0
    assert res.params.beta == truth.params.beta
    assert res.params.gamma == truth.params.gamma


def _replay_tuned_run(model, slopes, seed, tau1=3, tau2=7, mu=0.0, epsilon=0.0, shared_beta=False):
    """Tune on noisy piecewise counts, then check simulate() replays tune's own run and
    that every reported number is, bit for bit, the rates and weighted gap of that run."""
    lengths = (10, 12, 14, 12, 10)
    ps = periods_over(lengths)
    rng = np.random.default_rng(seed)
    series = CaseSeries("m", START, piecewise_log_linear_counts(500.0, slopes, lengths, rng=rng, noise_sigma=0.05))
    inflow = InflowSeries(tuple(rng.uniform(0.0, 50.0, sum(lengths)))) if model == "tourism" else None
    cfg = SearchConfig(points=9, refinement_levels=1)
    res = tune(
        model, series, ps, cfg, tau1=tau1, tau2=tau2, mu=mu, epsilon=epsilon,
        inflow=inflow, shared_beta=shared_beta,
    )
    traj = simulate(model, res.params, res.init, ps, inflow)
    assert traj == res.trajectory
    assert _slope_bits(res.k_sim) == _slope_bits(sim_growth_rates(traj, ps))
    assert _slope_bits(res.k_data) == _slope_bits(data_growth_rates(series, ps))
    assert _slope_bits(res.per_period_abs_diff) == _slope_bits(
        [abs(ks - kd) for ks, kd in zip(res.k_sim, res.k_data)])
    assert _slope_bits([res.weighted_error, res.as_percent]) == _slope_bits(
        [weighted_mean(res.per_period_abs_diff, ps.lengths()), 100.0 * res.weighted_error])
    assert res.init == default_init(series, ps)
    return res


@settings(max_examples=30, deadline=None)
@given(
    model=st.sampled_from(VARIANTS),
    slopes=st.lists(st.floats(-0.1, 0.15), min_size=5, max_size=5),
    seed=st.integers(0, 2**16),
    tau1=st.integers(0, 6),
    tau2=st.integers(0, 12),
    mu=st.floats(0.01, 1.5),
    epsilon=st.floats(0.0, 1.0),
    shared_beta=st.booleans(),
)
def test_tune_trajectory_is_what_simulate_reproduces(
    model, slopes, seed, tau1, tau2, mu, epsilon, shared_beta
):
    try:
        _replay_tuned_run(model, slopes, seed, tau1, tau2, mu, epsilon, shared_beta)
    except ConfigError:
        pass  # no feasible grid point for some period: nothing was committed


@pytest.mark.parametrize("model", VARIANTS)
def test_tune_replay_covers_every_variant(model):
    res = _replay_tuned_run(model, (0.12, -0.05, 0.1, -0.04, 0.08), 11, mu=0.2, epsilon=0.5)
    assert res.as_percent < 5.0


def test_tune_replay_with_shared_beta_and_capped_reinfection():
    # Reentries are capped at the R they leave: with mu > 1 all of R moves back to S each day,
    # so the run is the one mu = 1 gives.
    res = _replay_tuned_run("reinfect", (0.12, -0.05, 0.1, -0.04, 0.08), 4, mu=1.5, shared_beta=True)
    ps = periods_over((10, 12, 14, 12, 10))
    assert simulate("reinfect", dataclasses.replace(res.params, mu=1.0), res.init, ps) == res.trajectory
    assert len(set(res.params.beta)) == 1


def _reference_grid_eval(model, days, bvals, gvals, seg_lo, seg_hi, x_off, fit_days,
                         check_boundary, target_k, shared, o_vals):
    """The grid objective as first written: day lists of arrays and a candidate-major
    log-I matrix filled one column per fit day, then the one-pass slope sum(xc * log I) / sxx,
    summed day by day.  Each flow is capped at its source compartment, as the kernel caps it."""
    tau1, tau2 = (0, 0) if model == "original" else (shared.tau1, shared.tau2)
    mu = min(shared.mu, 1.0) if model == "reinfect" else 0.0
    nb, ng = len(bvals), len(gvals)
    n_cand = nb * ng
    beta, gamma = np.repeat(bvals, ng), np.tile(gvals, nb)
    i_days = list(days[1])
    m = len(i_days)
    s, i, r = days[0][-1], i_days[-1], days[2][-1]
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(m - 1, seg_hi + (1 if check_boundary else 0) - 1):
            new_infections = np.minimum(beta * i_days[t - tau1 if t >= tau1 else 0], 1.0) * s
            reentries = mu * r
            s = s - new_infections + reentries
            if model == "tourism":
                s = s + shared.epsilon * o_vals[t]
            i = i + new_infections
            removals = np.minimum(gamma * i_days[t - tau2 if t >= tau2 else 0], i)
            i = i - removals
            r = r + removals - reentries
            i_days.append(i)
    span = seg_hi - seg_lo
    y = np.zeros((n_cand, span))
    alive = np.ones(n_cand, dtype=bool) & np.isfinite(s) & np.isfinite(i) & np.isfinite(r)
    with np.errstate(invalid="ignore"):
        for d in range(span):
            if not fit_days[d]:
                continue
            vals = i_days[seg_lo + d]
            if seg_lo + d < m:
                if vals > 0:
                    y[:, d] = math.log(vals)
                else:
                    alive[:] = False
            else:
                alive &= vals > 0
                y[alive, d] = np.log(vals[alive])
        if check_boundary:
            alive &= i_days[seg_hi] > 0
        x = np.arange(x_off + seg_lo, x_off + seg_hi, dtype=float)[fit_days]
        if len(x) < 2:
            return np.full(n_cand, np.inf)
        xc = x - x.sum() / len(x)
        total = np.zeros(n_cand)
        for xd, yd in zip(xc, y[:, fit_days].T):
            total += xd * yd
        slope = total / float((xc**2).sum())
        return np.where(alive, np.abs(slope - target_k), np.inf)


def _fit_rows(bvals, gvals, seg_lo, seg_hi, x_off, fit_days, check_boundary, target_k, shared, o_vals):
    """The reference's arguments as _grid_eval takes them for a batch of one job: fit days as
    block rows and x values."""
    rows = np.flatnonzero(fit_days)
    x_fit = np.arange(x_off + seg_lo, x_off + seg_hi, dtype=float)[fit_days]
    return bvals[None], gvals[None], [(seg_hi, rows, x_fit, check_boundary, target_k)], shared, [o_vals]


_rate = st.floats(0.0, 3e-5)


@settings(max_examples=120, deadline=None)
@given(
    model=st.sampled_from(VARIANTS),
    committed=st.lists(
        st.tuples(st.floats(1e3, 1e6), st.floats(0.0, 1e3), st.floats(0.0, 100.0)),
        min_size=1, max_size=12,
    ),
    span=st.integers(1, 16),
    data=st.data(),
    check_boundary=st.booleans(),
    bvals=st.lists(st.one_of(_rate, _rate, st.floats(1e290, 1e300)), min_size=1, max_size=7),
    gvals=st.lists(st.floats(0.0, 1.5), min_size=1, max_size=9),
    tau1=st.integers(0, 10),
    tau2=st.integers(0, 10),
    mu=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
    epsilon=st.floats(0.0, 1.0),
    x_off=st.integers(0, 30),
    target_k=st.floats(-0.2, 0.2),
)
def test_grid_eval_matches_reference_bitwise(
    model, committed, span, data, check_boundary, bvals, gvals, tau1, tau2, mu, epsilon, x_off, target_k
):
    # days holds the committed run through the period's first day, as in tune
    seg_lo = len(committed) - 1
    seg_hi = seg_lo + span
    fit_days = np.array(data.draw(st.lists(st.booleans(), min_size=span, max_size=span)))
    days = tuple(list(col) for col in zip(*committed))
    shared = PiecewiseParams((0.0,) * 5, (0.0,) * 5, tau1=tau1, tau2=tau2, mu=mu, epsilon=epsilon)
    o_vals = tuple(float(3 + d % 7) for d in range(seg_hi + 1))
    args = (np.array(bvals), np.array(gvals), seg_lo, seg_hi, x_off, fit_days,
            check_boundary, target_k, shared, o_vals)
    (got,) = _grid_eval(model, [days], *_fit_rows(*args))
    want = _reference_grid_eval(model, days, *args)
    assert got.shape == (len(bvals) * len(gvals),)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert days == tuple(list(col) for col in zip(*committed))


def test_grid_eval_logs_the_committed_day_as_the_reference_does():
    i0 = 166.26389345623903  # np.log and math.log round this value differently
    assert np.log(i0) != math.log(i0)
    days = ([1e5], [i0], [0.0])
    args = (np.linspace(0.0, 1e-5, 5), np.linspace(0.0, 0.5, 5), 0, 8, 3, np.ones(8, dtype=bool),
            True, 0.05, PiecewiseParams((0.0,) * 5, (0.0,) * 5, tau1=2, tau2=4), None)
    (got,) = _grid_eval("delayed", [days], *_fit_rows(*args))
    assert np.isfinite(got).sum() > 1
    assert np.array_equal(got.view(np.int64), _reference_grid_eval("delayed", days, *args).view(np.int64))


def _outcome(res):
    """A tune outcome to compare bit for bit: a result pickled, floats by their bits; an error
    as its type and text."""
    return (type(res), str(res)) if isinstance(res, PipelineError) else pickle.dumps(res)


def _tune_alone(*args, **kwargs):
    try:
        return tune(*args, **kwargs)
    except PipelineError as exc:
        return exc


def _noisy_metro(lengths, seed):
    rng = np.random.default_rng(seed)
    slopes = (0.12, -0.05, 0.1, -0.04, 0.08)
    counts = piecewise_log_linear_counts(500.0, slopes, lengths, rng=rng, noise_sigma=0.05)
    return CaseSeries(f"m{seed}", START, counts), periods_over(lengths)


BATCH_LENGTHS = ((10, 12, 14, 12, 10), (8, 15, 9, 13, 11), (14, 9, 12, 10, 13))


@pytest.mark.parametrize("shared_beta, points", [(False, 9), (True, 9), (False, 1)])
def test_a_batch_tunes_each_job_as_tune_alone_does_bitwise(shared_beta, points):
    cfg = SearchConfig(points=points, refinement_levels=1)
    calls = []
    for seed, lengths in enumerate(BATCH_LENGTHS):
        series, ps = _noisy_metro(lengths, seed)
        for model, mu in (("delayed", 0.0), ("reinfect", 0.2), ("reinfect", 0.0)):
            calls.append(((model, series, ps, cfg), {"tau1": 3, "tau2": 7, "mu": mu}))
    # With mu = 1 all of R moves back to S each day.  The first job's S + R passes the float
    # range, so S overflows on day 1 for every candidate: nothing is feasible in period 1.  The
    # next two hold totals past the float range that overflow later, in a period that depends
    # on the grid, or never; the last stays far below the range.
    series, ps = _noisy_metro((3, 9, 9, 9, 9), 7)
    for init in (SirState(3e307, 10.0, 1.5e308), SirState(1e307, 1.5e308, 1.5e308),
                 SirState(5e307, 1.5e308, 0.0), SirState(1e3, 10.0, 0.0)):
        calls.append((("reinfect", series, ps, cfg), {"tau1": 1, "tau2": 1, "mu": 1.0, "init": init}))
    got = tune_batch([TuneJob(*args, **kwargs, shared_beta=shared_beta) for args, kwargs in calls])
    want = [_tune_alone(*args, **kwargs, shared_beta=shared_beta) for args, kwargs in calls]
    assert [_outcome(res) for res in got] == [_outcome(res) for res in want]
    failed = [str(res)[-8:] if isinstance(res, ConfigError) else None for res in want[-4:]]
    assert failed == {(False, 9): ["period 1", "period 3", None, None],
                      (True, 9): ["period 1", "period 2", "period 4", None],
                      (False, 1): ["period 1", None, None, None]}[shared_beta, points]


class _NanEmptyNumpy:
    """NumPy, but ``empty`` returns arrays filled with NaN (True as bool), and counts its calls."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape, dtype=float):
        self.calls += 1
        return np.full(shape, np.nan, dtype=dtype)


# Per period the longest job is the first (period 1), the last (period 2) or in the middle (period 3).
RAGGED_LENGTHS = ((16, 8, 10, 12, 9), (10, 12, 9, 11, 14), (9, 10, 17, 8, 10), (12, 9, 11, 13, 12),
                  (11, 16, 10, 9, 11), (12, 10, 9, 12, 13))
# Window days set to 0 per job: inside a period, at a period's end, all but two days of period 1
# (days 2 and 5 of 11), and all but one day of period 3, which leaves it no growth rate.
RAGGED_ZEROS = ({}, {4, 21, 55}, {14, 26}, {20, 31, 44}, {0, 1, 3, 4, *range(6, 11)}, {*range(22, 30)})


def test_a_ragged_batch_never_reads_an_unstepped_row(monkeypatch):
    cfg = SearchConfig(points=7, refinement_levels=1)
    inflow = InflowSeries(tuple(float(3 + d % 7) for d in range(60)))
    calls = []
    for seed, (lengths, zeros) in enumerate(zip(RAGGED_LENGTHS, RAGGED_ZEROS)):
        series, ps = _noisy_metro(lengths, seed)
        counts = tuple(0.0 if d in zeros else c for d, c in enumerate(series.counts))
        series = CaseSeries(series.region, START, counts)
        for model, kwargs in (("delayed", {}), ("reinfect", {"mu": 0.2}),
                              ("tourism", {"epsilon": 0.5, "inflow": inflow})):
            calls.append(((model, series, ps, cfg), {"tau1": 3, "tau2": 7, **kwargs}))
    want = [_outcome(_tune_alone(*args, **kwargs)) for args, kwargs in calls]
    assert [res[0] for res in want[-3:]] == [InsufficientDataError] * 3
    nan_numpy = _NanEmptyNumpy()
    monkeypatch.setattr(sir, "np", nan_numpy)
    for order in (calls, calls[::-1]):
        jobs = []
        for args, kwargs in order:
            try:
                jobs.append(TuneJob(*args, **kwargs))
            except PipelineError as exc:
                jobs.append(exc)
        done = iter(tune_batch([job for job in jobs if isinstance(job, TuneJob)]))
        got = [_outcome(job if isinstance(job, PipelineError) else next(done)) for job in jobs]
        assert got == (want if order is calls else want[::-1])
    assert nan_numpy.calls > 0


# (days, betas, gammas, steps), longest first: the second and third end on step 3, the fourth
# starts near the largest float, and the last takes no step, so its state is its committed day.
LONGEST_FIRST_JOBS = (
    (([1e5], [10.0], [0.0]), [1e-6, 2e-6], [0.1, 0.2], 9),
    (([1e5, 9e4], [10.0, 20.0], [0.0, 5.0]), [2e-6, 1e-5], [0.1, 0.3], 3),
    (([5e4], [100.0], [1.0]), [1e-5, 3e-6], [1.5, 0.2], 3),
    (([1e305], [1.0], [0.0]), [1e-5, 0.0], [0.0, 0.1], 1),
    (([2e4, 1.5e4, 1e4], [5.0, 6.0, 7.0], [1.0, 1.5, 2.0]), [3e-6, 0.0], [0.2, 0.0], 0),
)


def _score_inputs(steps, n_cand):
    """Score-mode kernel inputs: each job's rows 1 .. its steps are fit rows but row 2, with
    xc = row - 2.5, so some steps score only some jobs."""
    fit = np.zeros((max(steps) + 1, len(steps)), dtype=bool)
    for j, n in enumerate(steps):
        fit[1:n + 1, j] = True
    fit[2:3] = False
    xc = np.where(fit, np.arange(fit.shape[0])[:, None] - 2.5, 0.0)[:, :, None]
    return xc, fit, np.zeros((len(steps), n_cand))


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("model", VARIANTS)
def test_the_step_kernel_runs_jobs_longest_first_as_it_runs_each_alone(monkeypatch, model, record):
    monkeypatch.setattr(sir, "np", _NanEmptyNumpy())
    shared = PiecewiseParams((0.0,) * 5, (0.0,) * 5, tau1=1, tau2=2, mu=0.5, epsilon=0.5)
    inflow = tuple(float(3 + d % 7) for d in range(20))
    days, betas, gammas, steps = zip(*LONGEST_FIRST_JOBS)
    # Recording, the kernel returns S, I and R of every day; scoring, each job's score.
    block, finite = _euler_days(model, days, shared, np.array(betas), np.array(gammas), list(steps),
                                [inflow] * len(days), None if record else _score_inputs(steps, 2))
    for j, (job_days, beta, gamma, n) in enumerate(LONGEST_FIRST_JOBS):
        alone, alone_finite = _euler_days(model, [job_days], shared, np.array([beta]), np.array([gamma]), [n],
                                          [inflow], None if record else _score_inputs([n], 2))
        got, want = (block[:, :n + 1, j], alone[..., 0, :]) if record else (block[j], alone[0])
        assert np.isfinite(want).any()
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert finite[j].tolist() == alone_finite[0].tolist()
    assert finite.all()
    if record:  # the job without a step returns its committed day
        assert block[:, 0, -1, 0].tolist() == [1e4, 7.0, 2.0]


@pytest.mark.parametrize("record", [False, True])
def test_the_step_kernel_rejects_jobs_that_are_not_longest_first(record):
    shared = PiecewiseParams((0.0,) * 5, (0.0,) * 5)
    days = [([1e5], [10.0], [0.0])] * 3
    beta, gamma = np.full((3, 2), 1e-6), np.full((3, 2), 0.1)
    _euler_days("original", days, shared, beta, gamma, [4, 4, 2], [None] * 3,
                None if record else _score_inputs([4, 4, 2], 2))
    with pytest.raises(ValueError, match="steps must not increase"):
        _euler_days("original", days, shared, beta, gamma, [4, 2, 3], [None] * 3,
                    None if record else _score_inputs([4, 2, 3], 2))


@pytest.mark.parametrize("record", [False, True])
def test_a_state_that_overflows_in_one_compartment_is_not_finite(record):
    # The second job's S, I and R together pass the float range.  On its one step, its first
    # candidate removes all of I into R, which overflows; its second infects all of S into I,
    # which overflows.  Its row 1 is no fit row, so its score stays finite; only the state tells.
    shared = PiecewiseParams((0.0,) * 5, (0.0,) * 5)
    days = [([1e5], [10.0], [0.0]), ([1e308], [1e308], [1e308])]
    beta = np.array([[1e-6, 2e-6, 3e-6], [0.0, 1.0, 0.0]])
    gamma = np.array([[0.1, 0.2, 0.3], [1.0, 0.0, 0.1]])
    score = _score_inputs([3, 1], 3)
    score[1][:, 1] = False
    block, finite = _euler_days("original", days, shared, beta, gamma, [3, 1], [None] * 2,
                                None if record else score)
    assert finite.tolist() == [[True] * 3, [False, False, True]]
    if record:
        assert np.isinf(block[:, 1, 1]).T.tolist() == [[False, False, True], [False, True, False],
                                                       [False, False, False]]
        assert block[:2, 1, 1, :2].tolist() == [[1e308, 0.0], [0.0, math.inf]]
    else:
        assert np.isfinite(block).all()


def test_fit_chunk_gives_each_metro_and_model_what_tune_alone_gives():
    cfg = SearchConfig(points=9, refinement_levels=1)
    chunk = [_noisy_metro(lengths, seed) for seed, lengths in enumerate(BATCH_LENGTHS)]
    series, ps = chunk[1]
    counts = list(series.counts)
    counts[23:32] = [0.0] * 9  # period 3 has no positive day: no fittable growth rate
    chunk.insert(1, (CaseSeries("unfittable", START, tuple(counts)), ps))
    got = _fit_chunk(chunk, cfg=cfg, tau1=3, tau2=7, mu=0.2, shared_beta=False)
    want = [
        _tune_alone(model, series, ps, cfg, tau1=3, tau2=7, mu=0.2 if model == "reinfect" else 0.0)
        for series, ps in chunk
        for model in FIT_MODELS
    ]
    assert [_outcome(res) for res in got] == [_outcome(res) for res in want]
    assert [type(res) for res in got[2:4]] == [InsufficientDataError] * 2


def test_a_batched_commit_extends_each_job_as_it_would_alone():
    shared = PiecewiseParams((0.0,) * 5, (0.0,) * 5, tau1=2, tau2=4, mu=0.3)
    # Period 3 is committed through period 4's first day, to 9, 6 and 5 days.  The second
    # job infects all of S into I, past the float range, on its first step: a StateError.  The
    # third job's removals are capped at its I, which stops at 0.
    jobs = [
        (([1e5, 9e4], [10.0, 20.0], [0.0, 5.0]), 2e-6, 0.1, (0, 1, 2, 8, 10, 12)),
        (([1e308], [1e308], [0.0]), 1.0, 0.0, (0, 1, 2, 5, 7, 9)),
        (([5e4, 4e4, 3e4], [100.0, 90.0, 80.0], [0.0, 1.0, 2.0]), 1e-5, 1.5, (0, 1, 2, 4, 6, 8)),
    ]
    alone = []
    for days, beta, gamma, cuts in jobs:
        days = tuple(list(seq) for seq in days)
        (res,) = _commit("reinfect", [days], shared, [beta], [gamma], [cuts], [None], 3)
        alone.append((days, res))
    batch = [tuple(list(seq) for seq in days) for days, *_ in jobs]
    got = _commit("reinfect", batch, shared, *[list(col) for col in zip(*jobs)][1:], [None] * 3, 3)
    assert [(pickle.dumps(days), _outcome(res)) for days, res in zip(batch, got)] == [
        (pickle.dumps(days), _outcome(res)) for days, res in alone
    ]
    assert str(got[1]).startswith("reinfect: state is no longer finite on day 1 (period 3)")
    assert got[0] is None and got[2] is None and batch[2][1][3:] == [0.0, 0.0]
    assert [len(days[0]) for days in batch] == [9, 6, 5]


def test_a_job_is_feasible_by_its_own_last_day_not_the_batch_longest():
    # Candidate (0.01, 0.5) of the second job stays finite through its last day, row 8,
    # and overflows on row 9, which the batch reaches for the first job.
    shared = PiecewiseParams((0.0,) * 5, (0.0,) * 5, mu=1.0)
    odd = np.arange(1, 20, 2)
    jobs = [
        (([1e5], [10.0], [0.0]), [1e-6, 2e-6], [0.1, 0.2], (20, odd, odd.astype(float), True, 0.05)),
        (([1.0], [1e60], [0.0]), [0.01, 0.0], [0.5, 0.1], (9, np.arange(9), np.arange(9.0), False, 0.1)),
    ]
    days, bvals, gvals, spans = zip(*jobs)
    got = _grid_eval("reinfect", days, np.array(bvals), np.array(gvals), spans, shared, [None, None])
    for j, (job_days, job_b, job_g, span) in enumerate(jobs):
        (alone,) = _grid_eval("reinfect", [job_days], np.array([job_b]), np.array([job_g]), [span], shared,
                              [None])
        assert np.array_equal(got[j].view(np.int64), alone.view(np.int64))
    assert np.isfinite(got[1, 0])


def test_a_one_point_grid_is_summed_day_by_day_as_a_wide_grid_is():
    # NumPy sums a single column pairwise once it holds 8 values; over these 15 fit days the
    # pairwise sum of xc * log I rounds differently from the day-by-day one for both jobs.
    shared = PiecewiseParams((0.0,) * 5, (0.0,) * 5, tau1=2, tau2=4)
    jobs = [(560.6394622302311, 3.851391088977806e-06, 0.08603990317990844),
            (844.9323344383976, 2.227597409107484e-06, 0.1873984219182649)]
    wants, calls = [], []
    for i0, beta, gamma in jobs:
        days = ([1e5], [i0], [0.0])
        rest = (0, 15, 3, np.ones(15, dtype=bool), True, 0.05, shared, None)
        wants.append(_reference_grid_eval("delayed", days, np.array([beta]), np.array([gamma]), *rest))
        calls.append((days, *_fit_rows(np.array([beta]), np.array([gamma]), *rest)))
        wide = _fit_rows(np.array([beta, 0.0]), np.array([gamma, 0.5]), *rest)
        (wide,) = _grid_eval("delayed", [days], *wide)
        assert np.array_equal(wide[:1].view(np.int64), wants[-1].view(np.int64))
    for (days, *rest), want in zip(calls, wants):
        (alone,) = _grid_eval("delayed", [days], *rest)
        assert np.array_equal(alone.view(np.int64), want.view(np.int64))
    days, bvals, gvals, spans = zip(*((c[0], c[1][0], c[2][0], c[3][0]) for c in calls))
    got = _grid_eval("delayed", days, np.array(bvals), np.array(gvals), spans, shared, [None, None])
    assert np.array_equal(got.view(np.int64), np.array(wants).view(np.int64))


@pytest.fixture
def drops(monkeypatch):
    """The (jobs, columns) index array kept by each kernel call that drops dead columns."""
    kept, real = [], sir._to_front

    def spy(a, cols, rows, tmp):
        if not any(c is cols for c in kept):  # a drop passes the same cols to each of its gathers
            kept.append(cols)
        return real(a, cols, rows, tmp)

    monkeypatch.setattr(sir, "_to_front", spy)
    return kept


def _every_column_kept(monkeypatch, run):
    """``run()`` with the dead-column check past every step, so the kernel drops nothing."""
    with monkeypatch.context() as patch:
        patch.setattr(sir, "_CHECK_STEP", 10**9)
        return run()


_GRID = (np.linspace(0.0, 1e-5, 21), np.linspace(0.0, 1.0, 21))
_SEED_DAYS = ([1e5], [50.0], [0.0])
# (model, shared rates, jobs longest first), a job being (committed days, bvals, gvals, seg_hi,
# fit days, check_boundary, target_k).  A committed day holds seg_lo = len(days) - 1.
_DROP_CASES = {
    # Columns with a large gamma and a small beta reach I = 0 on a fit day within a few steps.
    "one job, 101 x 101": ("delayed", PiecewiseParams((0.0,) * 5, (0.0,) * 5, tau1=5, tau2=14),
                           [(_SEED_DAYS, np.linspace(0.0, 1e-5, 101), np.linspace(0.0, 1.0, 101), 40,
                             np.ones(40, dtype=bool), True, 0.05)]),
    # The last job ends on step 5, before the check; the others keep different live counts.
    "a job ends before the check": (
        "tourism", PiecewiseParams((0.0,) * 5, (0.0,) * 5, tau1=3, tau2=7, epsilon=0.5),
        [(([1.2e5, 1.1e5], [40.0, 60.0], [0.0, 2.0]), *_GRID, 31, np.ones(30, dtype=bool), True, 0.04),
         (_SEED_DAYS, np.linspace(0.0, 2e-5, 21), _GRID[1], 22, np.arange(22) % 3 > 0, False, 0.02),
         (_SEED_DAYS, *_GRID, 6, np.ones(6, dtype=bool), True, 0.0)]),
    # One fit day leaves the second job's acc all NaN, so it keeps only dead columns.
    "a job without two fit days": (
        "reinfect", PiecewiseParams((0.0,) * 5, (0.0,) * 5, tau1=5, tau2=14, mu=0.2),
        [(_SEED_DAYS, *_GRID, 30, np.ones(30, dtype=bool), True, 0.05),
         (_SEED_DAYS, *_GRID, 25, np.arange(25) == 12, False, 0.0)]),
    "a lone job without two fit days": ("delayed", PiecewiseParams((0.0,) * 5, (0.0,) * 5),
                                        [(_SEED_DAYS, *_GRID, 20, np.arange(20) == 3, True, 0.0)]),
    # S and I together pass the float range: beta = 1e300 infects all of S into I on step 1,
    # which overflows, and gamma = 1e300 removes all of I into R, from which reentries overflow
    # S.  No fit day before step 10, so only the I rule can drop a column at the check.
    "overflow before the check": (
        "reinfect", PiecewiseParams((0.0,) * 5, (0.0,) * 5, tau1=2, tau2=4, mu=0.5),
        [(([1e308], [1e308], [0.0]), np.array([0.0, 2e-309, 1e300]), np.array([0.1, 0.3, 1e300]), 24,
          np.arange(24) >= 10, True, 0.03)]),
}


@pytest.mark.parametrize("case", list(_DROP_CASES))
def test_dropping_dead_columns_scores_each_job_as_the_reference_does(monkeypatch, drops, case):
    model, shared, jobs = _DROP_CASES[case]
    o_vals = [tuple(float(3 + d % 7) for d in range(60))] * len(jobs)
    days = [tuple(list(seq) for seq in job[0]) for job in jobs]
    spans = [(hi, np.flatnonzero(fit), np.arange(len(fit), dtype=float)[fit] + 3, check, k)
             for _, _, _, hi, fit, check, k in jobs]
    args = (model, days, np.array([job[1] for job in jobs]), np.array([job[2] for job in jobs]), spans,
            shared, o_vals)
    got = _grid_eval(*args)
    assert len(drops) == 1
    n, width = drops[0].shape
    steps = [hi - len(job_days[0]) + check for job_days, _, _, hi, _, check, _ in jobs]
    assert n == sum(step > sir._CHECK_STEP for step in steps) and width < got.shape[1]
    kept = _every_column_kept(monkeypatch, lambda: _grid_eval(*args))
    assert np.array_equal(got.view(np.int64), kept.view(np.int64))
    for row, (job_days, bvals, gvals, hi, fit, check, k), inflow in zip(got, jobs, o_vals):
        seg_lo = len(job_days[0]) - 1
        want = _reference_grid_eval(model, job_days, bvals, gvals, seg_lo, hi, 3 - seg_lo, fit, check, k, shared,
                                    inflow)
        assert np.array_equal(row.view(np.int64), want.view(np.int64))
    assert np.isfinite(got).any() or case == "a lone job without two fit days"


def test_a_column_whose_i_is_zero_off_the_fit_days_is_not_dropped(drops):
    # Removals read today's I (tau2 = 0) at gamma = 1.2, infections read I six days back: the
    # first column's I is 0 on days 1, 8 (the check step), 15, 22 and 29, which are no fit days,
    # and positive on the others.  S and I together pass the float range, and beta = 1e300
    # infects all of S into I on step 1, which overflows, so the check drops those columns.
    shared = PiecewiseParams((0.0,) * 5, (0.0,) * 5, tau1=6, tau2=0)
    days = ([1e308], [1e308], [0.0])
    bvals, gvals = np.array([1e-309, 1e300]), np.array([1.2, 0.1])
    args = (bvals, gvals, 0, 30, 0, np.arange(30) % 7 != 1, False, 0.0, shared, None)
    (got,) = _grid_eval("delayed", [days], *_fit_rows(*args))
    assert [cols.shape for cols in drops] == [(1, 2)]
    assert np.array_equal(got.view(np.int64), _reference_grid_eval("delayed", days, *args).view(np.int64))
    block, _ = _euler_days("delayed", [days], shared, np.array([[1e-309]]), np.array([[1.2]]), [29], [None])
    assert np.flatnonzero(block[1, :, 0, 0] == 0.0).tolist() == [1, sir._CHECK_STEP, 15, 22, 29]
    assert np.isfinite(got[:2]).all() and np.isinf(got[2:]).all()


@settings(max_examples=60, deadline=None)
@example(committed=[(1e5, 10.0, -0.0)], bvals=[1e-6], gvals=[-0.0], steps=3, tau1=0, tau2=0, mu=0.0)
@example(committed=[(-0.0, 10.0, 0.0)], bvals=[-0.0], gvals=[0.5], steps=3, tau1=0, tau2=0, mu=0.0)
@given(
    committed=st.lists(st.tuples(st.one_of(st.floats(0.0, 1e6), st.just(-0.0)),
                                 st.one_of(st.floats(0.0, 1e3), st.just(-0.0)), st.sampled_from([-0.0, 0.0, 7.0])),
                       min_size=1, max_size=6),
    bvals=st.lists(st.one_of(_rate, st.just(-0.0), st.floats(1e290, 1e300)), min_size=1, max_size=4),
    gvals=st.lists(st.one_of(st.floats(0.0, 2.0), st.just(-0.0), st.just(1e300)), min_size=1, max_size=4),
    steps=st.integers(1, 15),
    tau1=st.integers(0, 6),
    tau2=st.integers(0, 6),
    mu=st.floats(0.0, 2.0),
)
def test_no_step_records_a_negative_value_or_minus_zero(committed, bvals, gvals, steps, tau1, tau2, mu):
    # Each flow is capped at the compartment it leaves, and a committed S or R of -0.0 is read
    # as +0.0, so every recorded S, I and R is >= +0.0 or NaN.
    days = tuple(list(col) for col in zip(*committed))
    shared = PiecewiseParams((0.0,) * 5, (0.0,) * 5, tau1=tau1, tau2=tau2, mu=mu)
    beta, gamma = np.repeat(bvals, len(gvals))[None], np.tile(gvals, len(bvals))[None]
    block, _ = _euler_days("reinfect", [days], shared, beta, gamma, [steps], [None])
    values = block[:, 1:]
    assert not (values < 0.0).any()
    assert not np.signbit(values[values == 0.0]).any()


def test_r_is_emptied_when_mu_exceeds_one():
    # With mu = 1.5 the reentries are capped at the R they leave: all of R moves back to S each
    # day, in record mode as with mu = 1, and when scoring bitwise as the reference.
    shared = PiecewiseParams((0.0,) * 5, (0.0,) * 5, tau1=2, tau2=4, mu=1.5)
    days = ([1e5], [100.0], [50.0])
    args = (np.linspace(0.0, 4e-6, 5), np.linspace(0.0, 0.2, 5), 0, 20, 0, np.ones(20, dtype=bool), True, 0.05,
            shared, None)
    (got,) = _grid_eval("reinfect", [days], *_fit_rows(*args))
    assert np.isfinite(got).sum() == 21
    assert np.array_equal(got.view(np.int64), _reference_grid_eval("reinfect", days, *args).view(np.int64))
    beta, gamma = np.repeat(args[0], 5)[None], np.tile(args[1], 5)[None]
    block, _ = _euler_days("reinfect", [days], shared, beta, gamma, [20], [None])
    at_one, _ = _euler_days("reinfect", [days], dataclasses.replace(shared, mu=1.0), beta, gamma, [20], [None])
    assert np.array_equal(block.view(np.int64), at_one.view(np.int64)) and (block[2] >= 0.0).all()


@settings(max_examples=80, deadline=None)
@given(
    model=st.sampled_from(VARIANTS),
    i0=st.floats(1.0, 1e3),
    span=st.integers(2, 40),
    data=st.data(),
    bvals=st.lists(_rate, min_size=1, max_size=5),
    gvals=st.lists(st.floats(0.0, 0.5), min_size=1, max_size=5),
    tau1=st.integers(0, 10),
    tau2=st.integers(0, 10),
    x_off=st.integers(0, 300),
)
def test_the_one_pass_slope_is_within_rounding_of_the_two_pass_slope(
    model, i0, span, data, bvals, gvals, tau1, tau2, x_off
):
    """sum(xc * y) / sxx against _ols_slope's sum(xc * (y - y mean)) / sxx, n fit days, u = 2**-53.

    Both sums are within (n + 1) u sum|xc| (|y| + |y - y mean|) of their exact values, and the
    computed xc sum to at most u (n |x mean| + sum|xc|), which the two-pass form multiplies by the
    y mean; the division adds u |slope| to each.  The bound asserted is twice all that."""
    fit_days = np.array(data.draw(st.lists(st.booleans(), min_size=span, max_size=span)))
    assume(fit_days.sum() >= 2)
    shared = PiecewiseParams((0.0,) * 5, (0.0,) * 5, tau1=tau1, tau2=tau2, mu=0.3, epsilon=0.5)
    o_vals = tuple(float(3 + d % 7) for d in range(span + 1))
    days = ([1e5 * i0], [i0], [0.0])
    args = (np.array(bvals), np.array(gvals), 0, span, x_off, fit_days, False, 0.0, shared, o_vals)
    (one,) = _grid_eval(model, [days], *_fit_rows(*args))
    beta, gamma = np.repeat(bvals, len(gvals))[None], np.tile(gvals, len(bvals))[None]
    block, _ = _euler_days(model, [days], shared, beta, gamma, [span - 1], [o_vals])
    ok = np.isfinite(one)  # the feasible candidates, whose fit-day I is positive and finite
    with np.errstate(all="ignore"):
        y = np.log(block[1, fit_days, 0])
        if fit_days[0]:
            y[0] = math.log(i0)
        x = np.arange(x_off, x_off + span, dtype=float)[fit_days]
        two, ym, xm = _ols_slope(x, y)
        n, u = len(x), 2.0**-53
        xc = x - xm
        sxx = float((xc**2).sum())
        terms = (np.abs(xc)[:, None] * (np.abs(y) + np.abs(y - ym))).sum(axis=0)
        bound = 2 * ((n + 1) * u * terms + u * np.abs(ym) * (n * abs(xm) + np.abs(xc).sum())) / sxx
        bound += 2 * u * (one + np.abs(two))
        assert (np.abs(one - np.abs(two)) <= bound)[ok].all()


def _reference_data_rates(series, periods):
    """data_growth_rates as first written: per period, the (day, log count) points of
    its positive days, then fit_simple; slope None below 2 points."""
    ks = []
    for p in periods.periods:
        first, counts = series.within(p.interval)
        points = [(d, math.log(c)) for d, c in enumerate(counts, start=first) if c > 0]
        ks.append(fit_simple(points).slope if len(points) >= 2 else None)
    return ks


def _reference_sim_rates(traj, periods):
    """sim_growth_rates as first written: per period, the (window day, log I) points of
    its positive days, then fit_simple."""
    window = periods.window
    ks = []
    for p in periods.periods:
        off = (p.start - window.start).days
        pts = []
        for d in range(p.length):
            i_val = traj.i[off + d]
            if i_val > 0:
                pts.append((off + d, math.log(i_val)))
        ks.append(fit_simple(pts).slope if len(pts) >= 2 else None)
    return ks


def _slope_bits(ks):
    return [None if k is None else int(np.float64(k).view(np.int64)) for k in ks]


_count = st.one_of(st.just(0.0), st.floats(0.5, 1e9), st.integers(1, 10**6).map(float))


_period_lengths = st.lists(st.integers(1, 12), min_size=5, max_size=5)


def _zero_periods(values, lead, lengths, dead):
    """Zero every value whose window day (index + lead) falls in a period listed in ``dead``."""
    cuts = np.cumsum([0, *lengths])
    return [
        0.0 if any(cuts[p] <= k + lead < cuts[p + 1] for p in dead) else v
        for k, v in enumerate(values)
    ]


@settings(max_examples=300, deadline=None)
@given(lengths=_period_lengths, lead=st.integers(-8, 8), data=st.data())
def test_data_growth_rates_match_the_per_period_reference_bitwise(lengths, lead, data):
    """Series that start before or after the window, end inside it, with zero days and
    all-zero periods: the window fit gives each period the reference's slope."""
    days = sum(lengths)
    n = data.draw(st.integers(1, days + 16))
    counts = data.draw(st.lists(_count, min_size=n, max_size=n))
    counts = _zero_periods(counts, lead, lengths, data.draw(st.sets(st.integers(0, 4))))
    series = CaseSeries("m", START + timedelta(days=lead), tuple(counts))
    ps = periods_over(lengths)
    assert _slope_bits(data_growth_rates(series, ps)) == _slope_bits(_reference_data_rates(series, ps))


@settings(max_examples=200, deadline=None)
@given(lengths=_period_lengths, data=st.data())
def test_sim_growth_rates_match_the_per_period_reference_bitwise(lengths, data):
    """Drawn I values with zero days, all-zero periods and an I that dies, and
    simulated runs whose I dies by a capped removal, as long as the window or longer."""
    ps = periods_over(lengths)
    days = ps.window.days
    if data.draw(st.booleans()):
        n = days + data.draw(st.integers(0, 3))
        i_vals = data.draw(st.lists(_count, min_size=n, max_size=n))
        i_vals = _zero_periods(i_vals, 0, lengths, data.draw(st.sets(st.integers(0, 4))))
        dies = data.draw(st.integers(0, n))
        i_vals = [v if k < dies else 0.0 for k, v in enumerate(i_vals)]
        traj = Trajectory((1e6,) * n, tuple(i_vals), (0.0,) * n)
    else:
        model = data.draw(st.sampled_from(("original", "delayed", "reinfect")))
        params = PiecewiseParams(
            data.draw(st.lists(st.floats(0.0, 3e-5), min_size=5, max_size=5)),
            data.draw(st.lists(st.floats(0.0, 3.0), min_size=5, max_size=5)),
            tau1=data.draw(st.integers(0, 6)), tau2=data.draw(st.integers(0, 6)),
            mu=data.draw(st.floats(0.0, 0.5)),
        )
        traj = simulate(model, params, SirState(1e5, data.draw(st.floats(0.0, 1e3)), 0.0), ps)
    assert _slope_bits(sim_growth_rates(traj, ps)) == _slope_bits(_reference_sim_rates(traj, ps))


@pytest.mark.parametrize("seed", [0, 3])
def test_periods_csv_slopes_are_the_data_growth_rates_bitwise(tmp_path, seed):
    out = str(tmp_path)
    cases = ["--cases", f"{out}/cases.csv", "--metro-map", f"{out}/metro_map.csv"]
    assert main(["gen-fixtures", "--seed", str(seed), "--metros", "4", "--out", out]) == 0
    assert main(["segment", *cases, "--out", out]) == 0
    with open(f"{out}/cases.csv") as fc, open(f"{out}/metro_map.csv") as fm:
        series_by = {s.region: s for s in aggregate_to_metros(load_cases(fc)[0], load_metro_map(fm))}
    with open(f"{out}/periods.csv", newline="") as fh:
        period_sets = load_periods_csv(fh)
    with open(f"{out}/periods.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(period_sets) == 4
    for metro, ps in period_sets.items():
        written = [float(r["slope"]) for r in rows if r["metro"] == metro]
        assert _slope_bits(data_growth_rates(series_by[metro], ps)) == _slope_bits(written)


@pytest.mark.parametrize("points", [1, 2, 21, 101])
def test_linspace_rows_equal_one_linspace_per_row_bitwise(points):
    rng = np.random.default_rng(points)
    lo = rng.uniform(0.0, 1.0, 40) * 10.0 ** rng.integers(-9, 1, 40)
    hi = lo + rng.uniform(0.0, 1.0, 40) * 10.0 ** rng.integers(-14, 1, 40)
    hi[[3, 17]] = lo[[3, 17]]  # zero-width windows, which switch a batched np.linspace's formula
    got = _linspace_rows(lo, hi, points)
    want = np.array([np.linspace(a, b, points) for a, b in zip(lo, hi)])
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
