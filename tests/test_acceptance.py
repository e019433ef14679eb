"""Acceptance gate: one test per shipped guarantee, run with stated tolerances.

Each test prints one ACCEPTANCE line on success; pytest -v shows one
pass/fail line per criterion either way.
"""

import math
import os
import subprocess
import sys
import time
from datetime import date, timedelta

import numpy as np
import pytest
from scipy import integrate, stats

from epigrowth.correlate import (
    NA_RANK,
    demographic_study,
    weather_study,
    weighted_avg_growth,
)
from epigrowth.fit import GrowthRates, data_growth_rates, discrepancy, tune
from epigrowth.fixtures import (
    FIXTURE_MU,
    FIXTURE_TAU1,
    FIXTURE_TAU2,
    PLANTED_CELL,
    make_bundle,
    synth_demographics,
)
from epigrowth.regress import fit_multi, fit_simple, student_t_sf
from epigrowth.segment import Period, PeriodSet, initial_periods, optimize_boundaries
from epigrowth.sir import InflowSeries, PiecewiseParams, SirState, simulate
from epigrowth.timeseries import CaseSeries, DateInterval, aggregate_to_metros
from synth_counts import piecewise_log_linear_counts, window_objective

START = date(2020, 3, 1)


def periods_over(lengths, start=START) -> PeriodSet:
    periods = []
    day = start
    for idx, ln in enumerate(lengths, start=1):
        end = day + timedelta(days=ln - 1)
        periods.append(Period(idx, day, end))
        day = end + timedelta(days=1)
    return PeriodSet("m", tuple(periods))


def anchors_at(window: DateInterval, offsets) -> tuple[date, ...]:
    return tuple(window.start + timedelta(days=o) for o in offsets)


def test_criterion_1_conservation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    ps = periods_over((18,) * 5)  # 90-day window

    def draw_state():
        s0 = float(rng.uniform(1e4, 1e6))
        i0 = float(rng.uniform(1.0, 0.01 * s0))
        r0 = float(rng.uniform(0.0, 0.01 * s0))
        return SirState(s0, i0, r0)

    unclamped = 0
    runs = 0
    for variant, n_runs in (("original", 34), ("delayed", 33), ("reinfect", 33)):
        for _ in range(n_runs):
            runs += 1
            init = draw_state()
            params = PiecewiseParams(
                [float(rng.uniform(0.0, 0.5)) / init.s] * 5,
                [float(rng.uniform(0.0, 0.3))] * 5,
                tau1=int(rng.integers(0, 6)) if variant != "original" else 0,
                tau2=int(rng.integers(0, 6)) if variant != "original" else 0,
                mu=float(rng.uniform(0.0, 0.3)) if variant == "reinfect" else 0.0,
            )
            traj = simulate(variant, params, init, ps)
            if traj.clamp_events:
                continue
            unclamped += 1
            total0 = init.s + init.i + init.r
            for s, i, r in zip(traj.s, traj.i, traj.r):
                assert abs(s + i + r - total0) / total0 < 1e-9
    assert runs == 100
    assert unclamped >= 50  # the sweep must actually exercise the invariant

    tourism_checked = 0
    for _ in range(25):
        init = draw_state()
        epsilon = float(rng.uniform(0.0, 1.0))
        o_vals = tuple(float(v) for v in rng.uniform(0.0, 100.0, ps.window.days - 1))
        params = PiecewiseParams(
            [float(rng.uniform(0.0, 0.5)) / init.s] * 5,
            [float(rng.uniform(0.0, 0.3))] * 5,
            tau1=int(rng.integers(0, 6)),
            tau2=int(rng.integers(0, 6)),
            epsilon=epsilon,
        )
        traj = simulate("tourism", params, init, ps, InflowSeries(o_vals))
        if traj.clamp_events:
            continue
        tourism_checked += 1
        total0 = init.s + init.i + init.r
        totals = [s + i + r for s, i, r in zip(traj.s, traj.i, traj.r)]
        for t in range(len(traj) - 1):
            increment = totals[t + 1] - totals[t]
            assert abs(increment - epsilon * o_vals[t]) / total0 < 1e-9
    assert tourism_checked >= 12

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(
        f"ACCEPTANCE 1 PASS: totals conserved to 1e-9 on {unclamped}/100 unclamped runs; "
        f"tourism increments matched eps*O(t) on {tourism_checked}/25 runs; {elapsed:.2f}s"
    )


def test_criterion_2_linearized_growth():
    t0 = time.perf_counter()
    s0, i0, gamma = 1e5, 1.0, 0.1  # I0/S0 = 1e-5
    ps = periods_over((5,) * 5)
    gaps = []
    for target in (-0.1, 0.05, 0.2):
        beta = (target + gamma) / s0
        params = PiecewiseParams([beta] * 5, [gamma] * 5)
        traj = simulate("original", params, SirState(s0, i0, 0.0), ps)
        pts = [(d, math.log(traj.i[d])) for d in range(20)]
        slope = fit_simple(pts).slope
        gaps.append(abs(slope - target))
        assert abs(slope - target) < 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 2 PASS: 20-day log-slope within 0.02/day of beta*S0-gamma "
        f"(worst gap {max(gaps):.5f}); {elapsed:.3f}s"
    )


def _days(traj):
    """A trajectory's S, I and R columns, without its clamp count."""
    return traj.s, traj.i, traj.r


def test_criterion_3_degeneracy_equalities():
    rng = np.random.default_rng(303)
    ps = periods_over((12,) * 5)  # 60-day runs
    for _ in range(20):
        s0 = float(rng.uniform(1e4, 1e6))
        init = SirState(s0, float(rng.uniform(1.0, 0.01 * s0)), float(rng.uniform(0.0, 0.01 * s0)))
        beta = float(rng.uniform(0.0, 0.8)) / s0
        gamma = float(rng.uniform(0.0, 0.8))
        tau1 = int(rng.integers(0, 11))
        tau2 = int(rng.integers(0, 11))
        mu = float(rng.uniform(0.0, 0.5))
        inflow = InflowSeries(tuple(float(v) for v in rng.uniform(0.0, 50.0, ps.window.days - 1)))

        no_lag = PiecewiseParams([beta] * 5, [gamma] * 5)
        assert (
            _days(simulate("delayed", no_lag, init, ps))
            == _days(simulate("original", no_lag, init, ps))
        )

        lagged = PiecewiseParams([beta] * 5, [gamma] * 5, tau1=tau1, tau2=tau2)
        delayed_states = _days(simulate("delayed", lagged, init, ps))
        assert _days(simulate("reinfect", lagged, init, ps)) == delayed_states
        assert _days(simulate("tourism", lagged, init, ps, inflow)) == delayed_states

        # and the non-degenerate settings really do change something
        with_mu = PiecewiseParams([beta] * 5, [gamma] * 5, tau1=tau1, tau2=tau2, mu=mu)
        if mu > 0 and init.r > 0:
            assert _days(simulate("reinfect", with_mu, init, ps)) != delayed_states
    print("ACCEPTANCE 3 PASS: all three degeneracy pairs bit-identical on 20 random draws")


def test_criterion_4_discrepancy_matches_brute_force():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(1000):
        ks = tuple(float(v) for v in rng.normal(0.0, 0.2, 5))
        kt = tuple(float(v) for v in rng.normal(0.0, 0.2, 5))
        lengths = tuple(int(v) for v in rng.integers(1, 61, 5))
        ps = periods_over(lengths)
        sim = GrowthRates(ks, lengths)
        data = GrowthRates(kt, lengths)
        rep = discrepancy(sim, data, ps)
        want = math.fsum(abs(a - b) * n for a, b, n in zip(ks, kt, lengths)) / sum(lengths)
        worst = max(worst, abs(rep.weighted_error - want))
        assert abs(rep.weighted_error - want) <= 1e-12
        assert abs(rep.as_percent - 100.0 * want) <= 1e-10
    print(f"ACCEPTANCE 4 PASS: 1000 random tuples within 1e-12 of fsum brute force (worst {worst:.2e})")


def test_criterion_5_ols_matches_textbook_formulas():
    rng = np.random.default_rng(505)

    for _ in range(100):
        n = int(rng.integers(2, 41))
        x = np.sort(rng.uniform(0.0, 100.0, n)) + np.arange(n) * 1e-3
        y = rng.normal(0.0, 10.0, n)
        fit = fit_simple(list(zip(x, y)))
        design = np.column_stack([x, np.ones(n)])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert fit.slope == pytest.approx(coef[0], abs=1e-8)
        assert fit.intercept == pytest.approx(coef[1], abs=1e-8)
        resid = y - design @ coef
        tss = float(((y - y.mean()) ** 2).sum())
        if tss > 0:
            assert fit.r_squared == pytest.approx(1.0 - float(resid @ resid) / tss, abs=1e-8)

    for _ in range(100):
        p = int(rng.integers(1, 5))
        n = int(rng.integers(p + 2, 41))
        design = rng.normal(0.0, 1.0, (n, p))
        y = rng.normal(0.0, 1.0, n)
        fit = fit_multi(design, y)
        full = np.column_stack([design, np.ones(n)])
        coef = np.linalg.solve(full.T @ full, full.T @ y)
        resid = y - full @ coef
        dof = n - p - 1
        sigma2 = float(resid @ resid) / dof
        cov = sigma2 * np.linalg.inv(full.T @ full)
        se = np.sqrt(np.diag(cov))
        t_stats = coef / se
        p_vals = 2.0 * stats.t.sf(np.abs(t_stats), dof)
        for j in range(p + 1):
            assert fit.coefficients[j] == pytest.approx(coef[j], abs=1e-8)
            assert fit.std_errors[j] == pytest.approx(se[j], abs=1e-8)
            assert fit.p_values[j] == pytest.approx(p_vals[j], abs=1e-8)
        tss = float(((y - y.mean()) ** 2).sum())
        assert fit.r_squared == pytest.approx(1.0 - float(resid @ resid) / tss, abs=1e-8)

    # rank deficiency surfaces as NA, never as a number
    base = rng.normal(0.0, 1.0, (12, 2))
    dup = np.column_stack([base, base[:, 0]])
    degenerate = fit_multi(dup, rng.normal(0.0, 1.0, 12))
    assert degenerate.r_squared is None
    assert degenerate.p_values[2] is None
    assert degenerate.std_errors[2] is None

    worst = 0.0
    for dof in range(1, 31):
        const = math.gamma((dof + 1) / 2.0) / (math.sqrt(dof * math.pi) * math.gamma(dof / 2.0))

        def pdf(u, c=const, d=dof):
            return c * (1.0 + u * u / d) ** (-(d + 1) / 2.0)

        for t_val in (-10.0, -5.0, -2.5, -1.0, -0.3, 0.0, 0.4, 1.0, 2.0, 5.0, 10.0):
            # contract is the two-sided tail P(|T| >= |t|)
            tail, _ = integrate.quad(pdf, abs(t_val), np.inf)
            want = 2.0 * tail
            got = student_t_sf(t_val, dof)
            worst = max(worst, abs(got - want))
            assert abs(got - want) < 1e-8
    print(
        "ACCEPTANCE 5 PASS: 100+100 OLS instances within 1e-8 of normal equations, "
        f"rank-deficient NA exact, t-tail within 1e-8 of quadrature (worst {worst:.2e})"
    )


def test_criterion_6_segmentation_recovery():
    t0 = time.perf_counter()
    window = DateInterval(date(2020, 3, 1), date(2020, 6, 18))  # 110 days
    offsets = (22, 44, 66, 88)
    hits = 0
    for trial in range(50):
        rng = np.random.default_rng(600 + trial)
        sign = 1.0 if int(rng.integers(0, 2)) else -1.0
        slopes = tuple(
            float(m) * (sign if i % 2 == 0 else -sign)
            for i, m in enumerate(rng.uniform(0.02, 0.2, 5))
        )
        breaks = tuple(int(o + rng.integers(-5, 6)) for o in offsets)
        lengths = tuple(b - a for a, b in zip((0, *breaks), (*breaks, 110)))
        counts = piecewise_log_linear_counts(5000.0, slopes, lengths, rng=rng, noise_sigma=0.02)
        series = CaseSeries("m", window.start, counts)
        ps = optimize_boundaries(
            series, initial_periods(window, anchors_at(window, offsets)), search_radius=14
        )
        found = tuple((p.start - window.start).days for p in ps.periods[1:])
        if all(abs(f - b) <= 1 for f, b in zip(found, breaks)):
            hits += 1
    assert hits >= 45

    # the DP optimum must equal exhaustive search on a small box
    import itertools

    from epigrowth.segment import _WindowFits

    small_window = DateInterval(date(2020, 3, 1), date(2020, 5, 9))  # 70 days
    small_offsets = (13, 29, 43, 57)
    for seed in (0, 1):
        rng = np.random.default_rng(60 + seed)
        counts = piecewise_log_linear_counts(
            5000.0, (0.12, -0.05, 0.1, -0.04, 0.08), (14, 14, 14, 14, 14),
            rng=rng, noise_sigma=0.02,
        )
        series = CaseSeries("m", small_window.start, counts)
        initial = initial_periods(small_window, anchors_at(small_window, small_offsets))
        ps = optimize_boundaries(series, initial, search_radius=2, min_period_length=7)
        fits = _WindowFits(series, small_window)
        best = -math.inf
        for combo in itertools.product(*[range(o - 2, o + 3) for o in small_offsets]):
            bounds = (0, *combo, 70)
            if any(b - a < 7 for a, b in zip(bounds, bounds[1:])):
                continue
            best = max(best, window_objective(fits, combo))
        got = window_objective(fits, tuple((p.start - small_window.start).days for p in ps.periods[1:]))
        assert got == pytest.approx(best, abs=1e-9)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"ACCEPTANCE 6 PASS: breakpoints within 1 day in {hits}/50 noisy trials; "
        f"DP matches exhaustive objective to 1e-9; {elapsed:.2f}s"
    )


def test_criterion_7_tuning_self_consistency():
    bundle = make_bundle(42, n_metros=8, round_counts=False)
    metros = aggregate_to_metros(bundle.cases, bundle.metro_map)
    assert len(metros) == 8
    worst_re = 0.0
    for series in metros:
        ps = PeriodSet(series.region, bundle.periods.periods)
        rep_re = tune(
            "reinfect", series, ps, tau1=FIXTURE_TAU1, tau2=FIXTURE_TAU2, mu=FIXTURE_MU
        ).report
        rep_del = tune("delayed", series, ps, tau1=FIXTURE_TAU1, tau2=FIXTURE_TAU2).report
        worst_re = max(worst_re, rep_re.as_percent)
        assert rep_re.as_percent < 0.1
        assert rep_re.as_percent <= rep_del.as_percent
    print(
        "ACCEPTANCE 7 PASS: reinfection tuning recovered all 8 generated metros "
        f"(worst {worst_re:.2e}%) and never exceeded the delayed-only error"
    )


def test_criterion_8_correlation_studies():
    bundle = make_bundle(7, n_metros=12)
    metros = aggregate_to_metros(bundle.cases, bundle.metro_map)
    response = {}
    for series in metros:
        ps = PeriodSet(series.region, bundle.periods.periods)
        response[series.region] = weighted_avg_growth(data_growth_rates(series, ps), ps)
    report = demographic_study(bundle.demographics, response)
    group, subcat = PLANTED_CELL
    planted_group = next(g for g in report.groups if g.group == group)
    assert planted_group.r_squared is not None and planted_group.r_squared >= 0.8
    planted_cell = next(c for c in report.cells if c.key == (group, subcat))
    assert planted_cell.p_value is not None and planted_cell.p_value < 0.05

    noisy_trials = 0
    for trial in range(40):
        rng = np.random.default_rng(800 + trial)
        names = [f"null-{i:02d}" for i in range(40)]
        null_response = {m: float(v) for m, v in zip(names, rng.normal(0.05, 0.02, 40))}
        table = synth_demographics(rng, null_response, planted=None)
        rep = demographic_study(table, null_response)
        if any(g.r_squared is not None and g.r_squared > 0.5 for g in rep.groups):
            noisy_trials += 1
    assert noisy_trials <= 2

    lengths = (14,) * 5
    ps = periods_over(lengths)
    counts = piecewise_log_linear_counts(
        1000.0, (0.1, -0.05, 0.08, -0.04, 0.06), lengths,
        rng=np.random.default_rng(88), noise_sigma=0.01,
    )
    series = CaseSeries("m", START, counts)
    flat = {"m": {day: ("sunny", 80.0, 60.0) for day in ps.window.dates()}}
    for mode in ("type", "high-temp", "low-temp"):
        rep = weather_study(flat, {"m": series}, {"m": ps}, mode)
        for cell in rep.cells:
            assert cell.p_value is None
            assert cell.na_reason == NA_RANK
    print(
        f"ACCEPTANCE 8 PASS: planted group R2={planted_group.r_squared:.3f}, cell "
        f"p={planted_cell.p_value:.2e}; {40 - noisy_trials}/40 null trials clean; "
        "constant-category weather cells all NA"
    )


def test_criterion_9_end_to_end_determinism(tmp_path):
    def run_chain(out: str, hash_seed: str) -> None:
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        chains = (
            ["gen-fixtures", "--seed", "3", "--metros", "4", "--out", out],
            [
                "segment",
                "--cases", os.path.join(out, "cases.csv"),
                "--metro-map", os.path.join(out, "metro_map.csv"),
                "--out", out,
            ],
            [
                "fit",
                "--cases", os.path.join(out, "cases.csv"),
                "--metro-map", os.path.join(out, "metro_map.csv"),
                "--periods", os.path.join(out, "periods.csv"),
                "--grid-points", "41",
                "--refinements", "1",
                "--out", out,
            ],
            [
                "correlate",
                "--cases", os.path.join(out, "cases.csv"),
                "--metro-map", os.path.join(out, "metro_map.csv"),
                "--periods", os.path.join(out, "periods.csv"),
                "--demographics", os.path.join(out, "demographics.csv"),
                "--weather", os.path.join(out, "weather.csv"),
                "--out", out,
            ],
        )
        for argv in chains:
            proc = subprocess.run(
                [sys.executable, "-m", "epigrowth", *argv],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, f"{argv[0]} failed: {proc.stderr}"

    dir_a = str(tmp_path / "a")
    dir_b = str(tmp_path / "b")
    run_chain(dir_a, "1")
    run_chain(dir_b, "2")  # different hash seed: output must not depend on dict order

    names = sorted(os.listdir(dir_a))
    assert names == sorted(os.listdir(dir_b))
    assert len(names) == 15
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as fa, open(os.path.join(dir_b, name), "rb") as fb:
            assert fa.read() == fb.read(), f"{name} differs between same-seed runs"
    print(f"ACCEPTANCE 9 PASS: {len(names)} output files byte-identical across same-seed chains")
