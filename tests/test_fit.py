import csv
import dataclasses
import math
import pickle
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epigrowth import sir
from epigrowth.errors import ConfigError, InsufficientDataError, PipelineError, ValidationError
from epigrowth.fit import (
    DEFAULT_S0_SCALE,
    DiscrepancyReport,
    GrowthRates,
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
)
from epigrowth.fixtures import (
    FIXTURE_MU,
    FIXTURE_TAU1,
    FIXTURE_TAU2,
    make_bundle,
)
from epigrowth.cli import FIT_MODELS, _fit_chunk, main
from epigrowth.regress import fit_simple
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


def rates(ks, ns):
    return GrowthRates(tuple(ks), tuple(ns))


def test_growth_rates_require_five_periods():
    with pytest.raises(ValidationError):
        GrowthRates((0.1,) * 4, (5,) * 4)


def test_growth_rates_reject_non_finite_slope():
    with pytest.raises(ValidationError):
        GrowthRates((0.1, float("nan"), 0.1, 0.1, 0.1), (5,) * 5)
    with pytest.raises(ValidationError):
        GrowthRates((0.1,) * 5, (5, 5, -1, 5, 5))


def test_discrepancy_equal_lengths_averages_the_gaps():
    ps = periods_over((20,) * 5)
    data = rates((0.0,) * 5, (20,) * 5)
    sim = rates((0.001, 0.002, 0.003, 0.004, 0.005), (20,) * 5)
    rep = discrepancy(sim, data, ps)
    assert rep.weighted_error == pytest.approx(3e-3, abs=1e-15)
    assert rep.as_percent == pytest.approx(0.3, abs=1e-12)
    assert rep.abs_diff == (0.001, 0.002, 0.003, 0.004, 0.005)


def test_discrepancy_weights_by_period_length():
    lengths = (10, 20, 30, 20, 20)
    ps = periods_over(lengths)
    data = rates((0.0,) * 5, lengths)
    sim = rates((0.005, 0.0, 0.0, 0.0, 0.0), lengths)
    rep = discrepancy(sim, data, ps)
    assert rep.weighted_error == pytest.approx(5e-4, abs=1e-15)
    assert rep.as_percent == pytest.approx(0.05, abs=1e-12)


def test_discrepancy_of_identical_rates_is_zero():
    lengths = (10, 20, 30, 20, 20)
    ps = periods_over(lengths)
    a = rates((0.12, -0.05, 0.1, -0.04, 0.08), lengths)
    b = rates(a.k, lengths)
    assert discrepancy(b, a, ps).weighted_error == 0.0


def test_discrepancy_rejects_missing_rates():
    ps = periods_over((7,) * 5)
    full = rates((0.1,) * 5, (7,) * 5)
    holed = rates((0.1, None, 0.1, 0.1, 0.1), (7, 0, 7, 7, 7))
    with pytest.raises(ValidationError, match="period 2"):
        discrepancy(holed, full, ps)
    with pytest.raises(ValidationError):
        discrepancy(rates(full.k, full.n), rates(holed.k, holed.n), ps)


def test_discrepancy_is_symmetric():
    rng = np.random.default_rng(7)
    ps = periods_over((10, 20, 30, 20, 20))
    for _ in range(20):
        a = rates(tuple(rng.normal(0, 0.1, 5)), (5,) * 5)
        b = rates(tuple(rng.normal(0, 0.1, 5)), (5,) * 5)
        assert discrepancy(b, a, ps).weighted_error == discrepancy(a, b, ps).weighted_error


def test_discrepancy_invariant_under_uniform_length_scaling():
    base = (10, 20, 30, 20, 20)
    a = rates((0.12, -0.05, 0.1, -0.04, 0.08), base)
    b = rates((0.1, 0.0, 0.09, -0.01, 0.03), base)
    r1 = discrepancy(a, b, periods_over(base))
    r2 = discrepancy(a, b, periods_over(tuple(2 * n for n in base)))
    assert r2.weighted_error == r1.weighted_error
    r3 = discrepancy(a, b, periods_over(tuple(3 * n for n in base)))
    assert r3.weighted_error == pytest.approx(r1.weighted_error, rel=1e-12)


def test_discrepancy_report_rejects_zero_total_length():
    with pytest.raises(ValidationError, match="period lengths must sum to a positive number"):
        DiscrepancyReport((0.01,) * 5, (0,) * 5)


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
    assert got.n == lengths
    for k, want in zip(got.k, slopes):
        assert k == pytest.approx(want, abs=1e-9)


def test_data_growth_rates_flag_unfittable_periods():
    counts = list(piecewise_log_linear_counts(100.0, (0.1,) * 5, (7,) * 5))
    counts[14:21] = [0.0] * 7
    got = data_growth_rates(CaseSeries("m", START, tuple(counts)), periods_over((7,) * 5))
    assert got.k[2] is None
    assert got.n[2] == 0
    assert all(k is not None for i, k in enumerate(got.k) if i != 2)


def test_sim_growth_rates_count_positive_days():
    ps = periods_over((7,) * 5)
    params = PiecewiseParams([2e-6] * 5, [0.05] * 5)
    traj = simulate("original", params, SirState(1e5, 10.0, 0.0), ps)
    got = sim_growth_rates(traj, ps)
    assert got.n == (7,) * 5
    assert all(k is not None and k > 0 for k in got.k)


def test_beta_grid_auto_scales_to_initial_susceptibles():
    cfg = SearchConfig()
    g = beta_grid(cfg, 2e5)
    assert g[0] == 0.0
    assert g[-1] == pytest.approx(1 / 2e5)
    assert len(g) == cfg.beta_points
    assert len(gamma_grid(cfg)) == cfg.gamma_points
    with pytest.raises(ConfigError):
        beta_grid(cfg, 0.0)


def test_search_config_rejects_bad_ranges():
    with pytest.raises(ConfigError):
        SearchConfig(beta_points=0)
    with pytest.raises(ConfigError):
        SearchConfig(gamma_points=0)
    with pytest.raises(ConfigError):
        SearchConfig(refinement_levels=-1)
    # The ranges are fixed: beta in [0, 1/S0], gamma in [0, 1].
    assert [f.name for f in dataclasses.fields(SearchConfig)] == [
        "beta_points", "gamma_points", "refinement_levels"
    ]


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
    cfg = SearchConfig(beta_points=3, gamma_points=3, refinement_levels=0)
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
    cfg = SearchConfig(beta_points=1, gamma_points=1, refinement_levels=0)
    res = tune("original", series, ps, cfg, init=init)
    assert res.params.beta == (0.0,) * 5
    assert res.params.gamma == (0.0,) * 5
    assert res.report.as_percent == 0.0


def test_tune_shared_beta_locks_beta_across_periods():
    series, ps, init = _simulated_series()
    cfg = SearchConfig(beta_points=15, gamma_points=15, refinement_levels=1)
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
    coarse = SearchConfig(beta_points=21, gamma_points=21, refinement_levels=0)
    refined = SearchConfig(beta_points=21, gamma_points=21, refinement_levels=2)
    rep0 = tune("original", series, ps, coarse).report
    rep2 = tune("original", series, ps, refined).report
    assert rep2.weighted_error <= rep0.weighted_error + 1e-9


def test_tune_recovers_generating_parameters_exactly():
    bundle = make_bundle(5, n_metros=1, round_counts=False)
    series = aggregate_to_metros(bundle.cases, bundle.metro_map)[0]
    truth = bundle.truths[series.region]
    ps = PeriodSet(series.region, bundle.periods.periods)
    res = tune(
        "reinfect", series, ps,
        tau1=FIXTURE_TAU1, tau2=FIXTURE_TAU2, mu=FIXTURE_MU,
    )
    assert res.report.as_percent == 0.0
    assert res.params.beta == truth.params.beta
    assert res.params.gamma == truth.params.gamma


def _replay_tuned_run(model, slopes, seed, tau1=3, tau2=7, mu=0.0, epsilon=0.0, shared_beta=False):
    """Tune on noisy piecewise counts, then check simulate() replays tune's own run."""
    lengths = (10, 12, 14, 12, 10)
    ps = periods_over(lengths)
    rng = np.random.default_rng(seed)
    series = CaseSeries("m", START, piecewise_log_linear_counts(500.0, slopes, lengths, rng=rng, noise_sigma=0.05))
    inflow = InflowSeries(tuple(rng.uniform(0.0, 50.0, sum(lengths)))) if model == "tourism" else None
    cfg = SearchConfig(beta_points=9, gamma_points=9, refinement_levels=1)
    res = tune(
        model, series, ps, cfg, tau1=tau1, tau2=tau2, mu=mu, epsilon=epsilon,
        inflow=inflow, shared_beta=shared_beta,
    )
    traj = simulate(model, res.params, res.init, ps, inflow)
    assert traj == res.trajectory
    assert res.sim_rates == sim_growth_rates(traj, ps)
    assert res.data_rates == data_growth_rates(series, ps)
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
    assert res.report.as_percent < 5.0


def test_tune_replay_with_shared_beta_and_clamped_reinfection():
    # mu > 1 moves more than R holds back to S, so R is clamped on some days
    res = _replay_tuned_run("reinfect", (0.12, -0.05, 0.1, -0.04, 0.08), 4, mu=1.5, shared_beta=True)
    assert res.trajectory.clamp_events > 0
    assert len(set(res.params.beta)) == 1


def _reference_grid_eval(model, days, bvals, gvals, seg_lo, seg_hi, x_off, fit_days,
                         check_boundary, target_k, shared, o_vals):
    """The grid objective as first written: day lists of arrays, a candidate-major
    log-I matrix filled one column per fit day, then the closed-form slope."""
    tau1, tau2 = (0, 0) if model == "original" else (shared.tau1, shared.tau2)
    mu = shared.mu if model == "reinfect" else 0.0
    nb, ng = len(bvals), len(gvals)
    n_cand = nb * ng
    beta, gamma = np.repeat(bvals, ng), np.tile(gvals, nb)
    i_days = list(days[1])
    m = len(i_days)
    s, i, r = days[0][-1], i_days[-1], days[2][-1]
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(m - 1, seg_hi + (1 if check_boundary else 0) - 1):
            new_infections = beta * i_days[t - tau1 if t >= tau1 else 0] * s
            removals = gamma * i_days[t - tau2 if t >= tau2 else 0]
            reentries = mu * r
            s = s - new_infections + reentries
            if model == "tourism":
                s = s + shared.epsilon * o_vals[t]
            i = i + new_infections - removals
            r = r + removals - reentries
            s = np.maximum(s, 0.0)
            i = np.maximum(i, 0.0)
            r = np.maximum(r, 0.0)
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
        y = y[:, fit_days]
        xc = x - x.sum() / len(x)
        ym = y.sum(axis=-1) / len(x)
        slope = (xc * (y - ym[..., None])).sum(axis=-1) / float((xc**2).sum())
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


# One grid point per job takes _grid_eval's pairwise-sum path.
@pytest.mark.parametrize("shared_beta, points", [(False, 9), (True, 9), (False, 1)])
def test_a_batch_tunes_each_job_as_tune_alone_does_bitwise(shared_beta, points):
    cfg = SearchConfig(beta_points=points, gamma_points=points, refinement_levels=1)
    calls = []
    for seed, lengths in enumerate(BATCH_LENGTHS):
        series, ps = _noisy_metro(lengths, seed)
        for model, mu in (("delayed", 0.0), ("reinfect", 0.2), ("reinfect", 0.0)):
            calls.append(((model, series, ps, cfg), {"tau1": 3, "tau2": 7, "mu": mu}))
    # With mu = 1e308 the reinfection term mu * R overflows for R >= 2, so the job seeded with
    # R = 5 finds nothing feasible in period 1; of the others, some fail later and some finish.
    series, ps = _noisy_metro((3, 9, 9, 9, 9), 7)
    for init in (SirState(1e3, 10.0, 5.0), SirState(1e3, 10.0, 0.0), SirState(100.0, 100.0, 0.0),
                 SirState(1e4, 1.0, 0.0)):
        calls.append((("reinfect", series, ps, cfg), {"tau1": 1, "tau2": 1, "mu": 1e308, "init": init}))
    got = tune_batch([TuneJob(*args, **kwargs, shared_beta=shared_beta) for args, kwargs in calls])
    want = [_tune_alone(*args, **kwargs, shared_beta=shared_beta) for args, kwargs in calls]
    assert [_outcome(res) for res in got] == [_outcome(res) for res in want]
    failed = [str(res)[-8:] if isinstance(res, ConfigError) else None for res in want[-4:]]
    assert failed == {(False, 9): ["period 1", "period 3", "period 2", None],
                      (True, 9): ["period 1", None, "period 2", None],
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
    cfg = SearchConfig(beta_points=7, gamma_points=7, refinement_levels=1)
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


# (days, betas, gammas, steps) in no order: the first and third end on step 3, and the second,
# between them, is stepped past its own last step, where its first candidate overflows.
UNORDERED_JOBS = (
    (([1e5, 9e4], [10.0, 20.0], [0.0, 5.0]), [2e-6, 1e-5], [0.1, 0.3], 3),
    (([1e305], [1.0], [0.0]), [1e-5, 0.0], [0.0, 0.1], 1),
    (([5e4], [100.0], [1.0]), [1e-5, 3e-6], [1.5, 0.2], 3),
    (([1e5], [10.0], [0.0]), [1e-6, 2e-6], [0.1, 0.2], 9),
)


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("model", VARIANTS)
def test_the_step_kernel_runs_jobs_in_any_order_as_it_runs_each_alone(monkeypatch, model, record):
    monkeypatch.setattr(sir, "np", _NanEmptyNumpy())
    shared = PiecewiseParams((0.0,) * 5, (0.0,) * 5, tau1=1, tau2=2, mu=0.5, epsilon=0.5)
    inflow = tuple(float(3 + d % 7) for d in range(20))
    days, betas, gammas, steps = zip(*UNORDERED_JOBS)
    block, clamps, finite = _euler_days(model, days, shared, np.array(betas), np.array(gammas), list(steps),
                                        [inflow] * len(days), record)
    for j, (job_days, beta, gamma, n) in enumerate(UNORDERED_JOBS):
        alone, alone_clamps, alone_finite = _euler_days(model, [job_days], shared, np.array([beta]),
                                                        np.array([gamma]), [n], [inflow], record)
        got = block[:, :n + 1, j] if record else block[:n + 1, j]
        assert np.array_equal(got.view(np.int64), alone[..., 0, :].view(np.int64))
        assert (finite[j].tolist(), clamps[j:j + 1]) == (alone_finite[0].tolist(), alone_clamps)
    assert finite[1].tolist() == [True, True]


def test_fit_chunk_gives_each_metro_and_model_what_tune_alone_gives():
    cfg = SearchConfig(beta_points=9, gamma_points=9, refinement_levels=1)
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
    # job overflows on its first step, a StateError; the third job's R is clamped.
    jobs = [
        (([1e5, 9e4], [10.0, 20.0], [0.0, 5.0]), 2e-6, 0.1, (0, 1, 2, 8, 10, 12)),
        (([1e300], [1e300], [0.0]), 1.0, 0.0, (0, 1, 2, 5, 7, 9)),
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
    assert got[2] > 0
    assert [len(days[0]) for days in batch] == [9, 6, 5]


def test_a_job_is_feasible_by_its_own_last_day_not_the_batch_longest():
    # Candidate (0.01, 0.5) of the first job stays finite through its last day, row 8,
    # and overflows on row 9, which the batch reaches for the second job.
    shared = PiecewiseParams((0.0,) * 5, (0.0,) * 5, mu=1.0)
    odd = np.arange(1, 20, 2)
    jobs = [
        (([1.0], [1e60], [0.0]), [0.01, 0.0], [0.5, 0.1], (9, np.arange(9), np.arange(9.0), False, 0.1)),
        (([1e5], [10.0], [0.0]), [1e-6, 2e-6], [0.1, 0.2], (20, odd, odd.astype(float), True, 0.05)),
    ]
    days, bvals, gvals, spans = zip(*jobs)
    got = _grid_eval("reinfect", days, np.array(bvals), np.array(gvals), spans, shared, [None, None])
    for j, (job_days, job_b, job_g, span) in enumerate(jobs):
        (alone,) = _grid_eval("reinfect", [job_days], np.array([job_b]), np.array([job_g]), [span], shared,
                              [None])
        assert np.array_equal(got[j].view(np.int64), alone.view(np.int64))
    assert np.isfinite(got[0, 0])


def test_a_one_point_grid_is_summed_pairwise_as_the_reference_does():
    # NumPy sums a single column pairwise once it holds 8 values, and a batch column day by
    # day; over these 15 fit days and the boundary day the two round these jobs differently.
    shared = PiecewiseParams((0.0,) * 5, (0.0,) * 5, tau1=2, tau2=4)
    jobs = [(628.8445119386203, 2.6916414029087264e-06, 0.23270570707355803),
            (333.70255383950513, 2.9618305300137767e-06, 0.09561325154565502)]
    wants, calls = [], []
    for i0, beta, gamma in jobs:
        days = ([1e5], [i0], [0.0])
        fit_days = np.ones(15, dtype=bool)
        args = (np.array([beta]), np.array([gamma]), 0, 15, 3, fit_days, True, 0.05, shared, None)
        wants.append(_reference_grid_eval("delayed", days, *args))
        calls.append((days, *_fit_rows(*args)))
    for (days, *rest), want in zip(calls, wants):
        (alone,) = _grid_eval("delayed", [days], *rest)
        assert np.array_equal(alone.view(np.int64), want.view(np.int64))
    days, bvals, gvals, spans = zip(*((c[0], c[1][0], c[2][0], c[3][0]) for c in calls))
    got = _grid_eval("delayed", days, np.array(bvals), np.array(gvals), spans, shared, [None, None])
    assert np.array_equal(got.view(np.int64), np.array(wants).view(np.int64))


def _reference_data_rates(series, periods):
    """data_growth_rates as first written: per period, the (day, log count) points of
    its positive days, then fit_simple; slope None below 2 points."""
    ks, ns = [], []
    for p in periods.periods:
        first, counts = series.within(p.interval)
        points = [(d, math.log(c)) for d, c in enumerate(counts, start=first) if c > 0]
        ks.append(fit_simple(points).slope if len(points) >= 2 else None)
        ns.append(len(points))
    return ks, ns


def _reference_sim_rates(traj, periods):
    """sim_growth_rates as first written: per period, the (window day, log I) points of
    its positive days, then fit_simple, and a second walk to count those days."""
    window = periods.window
    ks, ns = [], []
    for p in periods.periods:
        off = (p.start - window.start).days
        pts = []
        for d in range(p.length):
            i_val = traj.i[off + d]
            if i_val > 0:
                pts.append((off + d, math.log(i_val)))
        ks.append(fit_simple(pts).slope if len(pts) >= 2 else None)
        ns.append(sum(1 for d in range(p.length) if traj.i[off + d] > 0))
    return ks, ns


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
    all-zero periods: the window fit gives each period the reference's slope and count."""
    days = sum(lengths)
    n = data.draw(st.integers(1, days + 16))
    counts = data.draw(st.lists(_count, min_size=n, max_size=n))
    counts = _zero_periods(counts, lead, lengths, data.draw(st.sets(st.integers(0, 4))))
    series = CaseSeries("m", START + timedelta(days=lead), tuple(counts))
    ps = periods_over(lengths)
    got = data_growth_rates(series, ps)
    want_k, want_n = _reference_data_rates(series, ps)
    assert _slope_bits(got.k) == _slope_bits(want_k)
    assert list(got.n) == want_n


@settings(max_examples=200, deadline=None)
@given(lengths=_period_lengths, data=st.data())
def test_sim_growth_rates_match_the_per_period_reference_bitwise(lengths, data):
    """Drawn I values with zero days, all-zero periods and an I that dies, and
    simulated runs whose I dies by clamping, as long as the window or longer."""
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
    got = sim_growth_rates(traj, ps)
    want_k, want_n = _reference_sim_rates(traj, ps)
    assert _slope_bits(got.k) == _slope_bits(want_k)
    assert list(got.n) == want_n


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
        assert _slope_bits(data_growth_rates(series_by[metro], ps).k) == _slope_bits(written)


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
