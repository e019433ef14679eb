import io
import math
from datetime import date, timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epigrowth.errors import ConfigError, StateError, ValidationError
from epigrowth.fit import sim_growth_rates
from epigrowth.segment import Period, PeriodSet
from epigrowth.sir import (
    VARIANTS,
    InflowSeries,
    PiecewiseParams,
    SirParams,
    SirState,
    Trajectory,
    load_inflow,
    simulate,
    write_inflow_csv,
    write_trajectory_csv,
)


def periods_over(start: date, lengths) -> PeriodSet:
    """Five contiguous periods with the given day counts."""
    periods = []
    cursor = start
    for i, n in enumerate(lengths, start=1):
        end = cursor + timedelta(days=n - 1)
        periods.append(Period(i, cursor, end))
        cursor = end + timedelta(days=1)
    return PeriodSet(metro="test", periods=tuple(periods))


FIVE_WEEKS = periods_over(date(2020, 3, 1), (7, 7, 7, 7, 7))


def constant(model, beta, gamma, init, **kw):
    """simulate() with the same rates in all five periods of FIVE_WEEKS."""
    inflow = kw.pop("inflow", None)
    params = PiecewiseParams.from_rates([beta] * 5, [gamma] * 5, **kw)
    return simulate(model, params, init, FIVE_WEEKS, inflow=inflow)


def test_step_original_hand_computed():
    nxt = constant("original", 0.5, 0.1, SirState(0.99, 0.01, 0.0)).states[1]
    assert nxt.s == pytest.approx(0.985050, abs=1e-12)
    assert nxt.i == pytest.approx(0.013950, abs=1e-12)
    assert nxt.r == pytest.approx(0.001, abs=1e-12)


def test_disease_free_state_is_fixed_point():
    state = SirState(1.0, 0.0, 0.0)
    traj = constant("original", 0.9, 0.4, state)
    assert set(traj.states) == {state}
    assert traj.clamp_events == 0


def test_step_delayed_reads_lagged_infections():
    # tau1=2: the step leaving day t infects at beta * I(t-2) * S(t)
    beta = 1e-4
    traj = constant("delayed", beta, 0.0, SirState(1000.0, 10.0, 0.0), tau1=2, tau2=0)
    states = traj.states
    for t in range(2, 10):
        new_infections = beta * states[t - 2].i * states[t].s
        assert states[t + 1].s == states[t].s - new_infections
        assert states[t + 1].i == states[t].i + new_infections


def test_step_delayed_prehistory_uses_first_day():
    # reads before day 0 return I(0): the first step equals the undelayed one,
    # and every step before day tau keeps reading I(0)
    init = SirState(100.0, 8.0, 0.0)
    delayed = constant("delayed", 0.01, 0.5, init, tau1=3, tau2=6).states
    undelayed = constant("original", 0.01, 0.5, init).states
    assert delayed[1] == undelayed[1]
    for t in range(3):
        assert delayed[t + 1].s == delayed[t].s - 0.01 * init.i * delayed[t].s
    for t in range(6):
        assert delayed[t + 1].r == delayed[t].r + 0.5 * init.i


def test_trajectory_rejects_empty_states():
    with pytest.raises(ValidationError):
        Trajectory(())


def test_step_reinfect_moves_recovered_back():
    nxt = constant("reinfect", 0.1, 0.1, SirState(0.0, 0.0, 100.0), mu=0.1).states[1]
    assert nxt.s == pytest.approx(10.0, abs=1e-12)
    assert nxt.i == 0.0
    assert nxt.r == pytest.approx(90.0, abs=1e-12)


def test_step_tourism_adds_scaled_inflow():
    inflow = InflowSeries((100.0,) * (FIVE_WEEKS.window.days - 1))
    traj = constant("tourism", 0.0, 0.0, SirState(50.0, 0.0, 0.0), epsilon=0.5, inflow=inflow)
    assert traj.states[1].s == pytest.approx(100.0, abs=1e-12)


def test_simulate_non_finite_state_raises_naming_day_and_period():
    # beta*I*S overflows on day 1, and 0 * inf poisons day 2
    with pytest.raises(StateError, match=r"original: .*day 2 \(period 1\)"):
        constant("original", 1e300, 0.1, SirState(1e5, 1.0, 0.0))
    lengths = (7, 7, 7, 7, 7)
    params = PiecewiseParams.from_rates([1e-6, 1e-6, 1e300, 1e-6, 1e-6], [0.1] * 5, tau1=2)
    with pytest.raises(StateError, match=r"delayed: .*\(period 3\)"):
        simulate("delayed", params, SirState(1e5, 1.0, 0.0), periods_over(date(2020, 3, 1), lengths))


def _scalar_reference(model, params, init, periods, inflow=None):
    """The forward-Euler recurrence written out in Python floats: (states, clamps)."""
    s, i, r = [init.s], [init.i], [init.r]
    clamps = 0
    period_of_day = [k for k, p in enumerate(periods.periods) for _ in range(p.length)]
    for t in range(periods.window.days - 1):
        p = params.per_period[period_of_day[t]]
        lag1, lag2 = (0, 0) if model == "original" else (p.tau1, p.tau2)
        new_infections = p.beta * i[max(t - lag1, 0)] * s[t]
        removals = p.gamma * i[max(t - lag2, 0)]
        reentries = (p.mu if model == "reinfect" else 0.0) * r[t]
        arrivals = p.epsilon * inflow.o[t] if model == "tourism" else 0.0
        raw = (
            s[t] - new_infections + reentries + arrivals,
            i[t] + new_infections - removals,
            r[t] + removals - reentries,
        )
        clamps += sum(v < 0.0 for v in raw)
        for seq, v in zip((s, i, r), raw):
            seq.append(v if v >= 0.0 else 0.0)
    return tuple(SirState(*state) for state in zip(s, i, r)), clamps


@settings(max_examples=60, deadline=None)
@given(
    model=st.sampled_from(VARIANTS),
    betas=st.lists(st.floats(0.0, 3e-5), min_size=5, max_size=5),
    gammas=st.lists(st.floats(0.0, 1.5), min_size=5, max_size=5),
    tau1=st.integers(0, 10),
    tau2=st.integers(0, 10),
    mu=st.floats(0.0, 1.5),
    epsilon=st.floats(0.0, 1.0),
    init=st.tuples(st.floats(1e3, 1e6), st.floats(0.0, 100.0), st.floats(0.0, 100.0)),
)
def test_simulate_matches_scalar_reference_bitwise(model, betas, gammas, tau1, tau2, mu, epsilon, init):
    params = PiecewiseParams.from_rates(betas, gammas, tau1=tau1, tau2=tau2, mu=mu, epsilon=epsilon)
    inflow = InflowSeries(tuple(float(3 + d % 7) for d in range(FIVE_WEEKS.window.days - 1)))
    traj = simulate(model, params, SirState(*init), FIVE_WEEKS, inflow)
    states, clamps = _scalar_reference(model, params, SirState(*init), FIVE_WEEKS, inflow)
    assert traj.states == states
    assert traj.clamp_events == clamps


def test_simulate_conserves_population():
    params = PiecewiseParams.from_rates([2e-6] * 5, [0.08] * 5, tau1=3, tau2=9, mu=0.05)
    init = SirState(90_000.0, 100.0, 0.0)
    traj = simulate("reinfect", params, init, FIVE_WEEKS)
    assert traj.clamp_events == 0
    total0 = init.s + init.i + init.r
    worst = max(abs(st.s + st.i + st.r - total0) for st in traj.states)
    assert worst / total0 < 1e-9


@settings(max_examples=200, deadline=None)
@example("original", 1e5, 10.0, 0.0, 1e5, 0.1, 0, 0, 0.0)  # README: drift 8.999, 1 clamp event
@given(
    model=st.sampled_from(("original", "delayed", "reinfect")),
    s0=st.floats(1.0, 1e6),
    i0=st.floats(0.0, 1e4),
    r0=st.floats(0.0, 1e4),
    beta_s0=st.floats(0.0, 5.0),
    gamma=st.floats(0.0, 3.0),
    tau1=st.integers(0, 8),
    tau2=st.integers(0, 8),
    mu=st.floats(0.0, 2.0),
)
def test_only_a_clamp_moves_the_total(model, s0, i0, r0, beta_s0, gamma, tau1, tau2, mu):
    """Outside tourism, a drift of S + I + R above rounding means a clamp fired."""
    init = SirState(s0, i0, r0)
    try:
        traj = constant(model, beta_s0 / s0, gamma, init, tau1=tau1, tau2=tau2, mu=mu)
    except StateError:
        return  # the state overflowed: simulate keeps no trajectory to measure
    drift = max(abs(state.total - init.total) for state in traj.states) / init.total
    assert drift <= 1e-9 or traj.clamp_events > 0


def test_simulate_tourism_adds_exact_inflow_each_step():
    days = FIVE_WEEKS.window.days
    inflow = InflowSeries(tuple(float(5 + d % 3) for d in range(days - 1)))
    params = PiecewiseParams.from_rates([1e-6] * 5, [0.1] * 5, tau1=2, tau2=4, epsilon=0.25)
    init = SirState(50_000.0, 40.0, 0.0)
    traj = simulate("tourism", params, init, FIVE_WEEKS, inflow=inflow)
    for t in range(days - 1):
        before = traj.states[t]
        after = traj.states[t + 1]
        gain = (after.s + after.i + after.r) - (before.s + before.i + before.r)
        expect = 0.25 * inflow.o[t]
        assert gain == pytest.approx(expect, rel=1e-9)


def test_simulate_switches_parameters_on_source_day():
    # beta jumps in period 2; the step leaving the last day of period 1 still
    # uses period-1 rates, so the first divergence appears one day later
    lengths = (7, 7, 7, 7, 7)
    base = PiecewiseParams.from_rates([1e-6] * 5, [0.1] * 5)
    bumped = PiecewiseParams.from_rates([1e-6, 5e-6, 1e-6, 1e-6, 1e-6], [0.1] * 5)
    init = SirState(10_000.0, 50.0, 0.0)
    ps = periods_over(date(2020, 3, 1), lengths)
    a = simulate("original", base, init, ps)
    b = simulate("original", bumped, init, ps)
    same_days = [t for t in range(ps.window.days) if a.states[t] == b.states[t]]
    assert same_days == list(range(8))  # days 0..7 identical, day 8 diverges


def test_simulate_clamps_and_counts_overshoot():
    # gamma large enough that I would go negative on the first removal burst
    params = PiecewiseParams.from_rates([0.0] * 5, [3.0] * 5)
    init = SirState(100.0, 10.0, 0.0)
    traj = simulate("original", params, init, FIVE_WEEKS)
    assert traj.clamp_events > 0
    assert all(st.s >= 0 and st.i >= 0 and st.r >= 0 for st in traj.states)


def test_simulate_requires_inflow_for_tourism():
    params = PiecewiseParams.from_rates([1e-6] * 5, [0.1] * 5, epsilon=0.5)
    with pytest.raises(ConfigError):
        simulate("tourism", params, SirState(100.0, 1.0, 0.0), FIVE_WEEKS)
    short = InflowSeries((1.0,) * 10)
    with pytest.raises(ConfigError):
        simulate("tourism", params, SirState(100.0, 1.0, 0.0), FIVE_WEEKS, inflow=short)


def test_simulate_rejects_unknown_variant():
    params = PiecewiseParams.from_rates([1e-6] * 5, [0.1] * 5)
    with pytest.raises(ConfigError):
        simulate("seir", params, SirState(100.0, 1.0, 0.0), FIVE_WEEKS)


def test_delay_degeneracy_matches_original_bitwise():
    params = PiecewiseParams.from_rates([3e-6, 1e-6, 2e-6, 5e-7, 4e-6], [0.2, 0.1, 0.3, 0.05, 0.15])
    init = SirState(200_000.0, 37.0, 11.0)
    a = simulate("original", params, init, FIVE_WEEKS)
    b = simulate("delayed", params, init, FIVE_WEEKS)
    assert a.states == b.states


def test_parameter_degeneracies_match_delayed_bitwise():
    params = PiecewiseParams.from_rates(
        [3e-6, 1e-6, 2e-6, 5e-7, 4e-6], [0.2, 0.1, 0.3, 0.05, 0.15], tau1=4, tau2=11
    )
    init = SirState(200_000.0, 37.0, 11.0)
    delayed = simulate("delayed", params, init, FIVE_WEEKS)
    reinfect = simulate("reinfect", params, init, FIVE_WEEKS)
    inflow = InflowSeries(tuple(float(3 + d % 5) for d in range(FIVE_WEEKS.window.days - 1)))
    tourism = simulate("tourism", params, init, FIVE_WEEKS, inflow=inflow)
    assert delayed.states == reinfect.states  # mu defaults to 0
    assert delayed.states == tourism.states  # epsilon defaults to 0


def test_growth_rates_on_exact_exponential():
    days = FIVE_WEEKS.window.days
    states = tuple(SirState(1e6, math.exp(0.1 * t), 0.0) for t in range(days))
    traj = Trajectory(states)
    rates = sim_growth_rates(traj, FIVE_WEEKS).k
    for k in rates:
        assert k == pytest.approx(0.1, abs=1e-9)


def test_growth_rates_constant_series_is_flat():
    states = tuple(SirState(10.0, 42.0, 0.0) for _ in range(FIVE_WEEKS.window.days))
    rates = sim_growth_rates(Trajectory(states), FIVE_WEEKS).k
    assert rates == (0.0,) * 5


def test_growth_rates_all_zero_period_is_none():
    days = FIVE_WEEKS.window.days
    states = tuple(
        SirState(10.0, 5.0 if t >= 7 else 0.0, 0.0) for t in range(days)
    )
    rates = sim_growth_rates(Trajectory(states), FIVE_WEEKS).k
    assert rates[0] is None
    assert rates[2] == 0.0


def test_piecewise_params_require_shared_globals():
    mixed = [SirParams(1e-6, 0.1, tau1=2), SirParams(1e-6, 0.1, tau1=3)] + [
        SirParams(1e-6, 0.1, tau1=2)
    ] * 3
    with pytest.raises(ValidationError):
        PiecewiseParams(tuple(mixed))


def test_sir_params_validation():
    with pytest.raises(ValidationError):
        SirParams(beta=-1e-6, gamma=0.1)
    with pytest.raises(ValidationError):
        SirParams(beta=1e-6, gamma=0.1, tau1=-1)


def test_trajectory_csv_roundtrip_preserves_floats():
    states = (SirState(1.25, 0.1 + 0.2, 0.0), SirState(1.0, 2.0, 3.0))
    traj = Trajectory(states)
    buf = io.StringIO()
    write_trajectory_csv(traj, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "day,s,i,r"
    # repr round-trip keeps every bit
    assert float(lines[1].split(",")[2]) == 0.1 + 0.2


def test_inflow_roundtrip_and_validation():
    inflow = InflowSeries((0.0, 2.5, 7.0))
    buf = io.StringIO()
    write_inflow_csv(inflow, buf)
    buf.seek(0)
    assert load_inflow(buf).o == inflow.o
    with pytest.raises(ValidationError):
        InflowSeries((1.0, -2.0))
