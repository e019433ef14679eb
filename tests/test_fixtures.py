import json
import math

import numpy as np
import pytest

from epigrowth.correlate import subcategories
from epigrowth.errors import ConfigError
from epigrowth.fixtures import (
    FIXTURE_MU,
    FIXTURE_TAU1,
    FIXTURE_TAU2,
    FIXTURE_WEATHER_KINDS,
    GROUP_SUBCATS,
    PLANTED_CELL,
    make_bundle,
    synth_demographics,
    synth_weather,
)
from epigrowth.sir import SirState, simulate
from epigrowth.timeseries import DateInterval, aggregate_to_metros
from datetime import date
from synth_counts import piecewise_log_linear_counts


def test_make_bundle_is_seed_deterministic():
    assert make_bundle(3, n_metros=2) == make_bundle(3, n_metros=2)
    a = make_bundle(3, n_metros=2)
    b = make_bundle(4, n_metros=2)
    assert a.cases != b.cases


def test_make_bundle_structure():
    bundle = make_bundle(0, n_metros=3)
    assert len(bundle.cases) == 6
    assert [s.region for s in bundle.cases] == sorted(s.region for s in bundle.cases)
    assert sorted(bundle.truths) == ["metro-01", "metro-02", "metro-03"]
    for metro, truth in bundle.truths.items():
        assert bundle.metro_map[truth.counties[0]] == metro
        assert bundle.metro_map[truth.counties[1]] == metro
    assert len(bundle.inflow) == bundle.window.days
    assert sum(bundle.periods.lengths()) == bundle.window.days
    with pytest.raises(ConfigError):
        make_bundle(0, n_metros=0)


@pytest.mark.parametrize("round_counts", [True, False])
def test_county_split_sums_back_to_the_generating_run(round_counts):
    bundle = make_bundle(2, n_metros=2, round_counts=round_counts)
    metros = {s.region: s for s in aggregate_to_metros(bundle.cases, bundle.metro_map)}
    for metro, truth in bundle.truths.items():
        traj = simulate(
            "reinfect", truth.params, SirState(truth.s0, truth.i0, 0.0), bundle.periods
        )
        want = tuple(float(round(i)) if round_counts else i for i in traj.i)
        assert metros[metro].counts == want


def test_piecewise_counts_follow_their_slopes_exactly():
    lengths = (4, 3, 5)
    slopes = (0.2, -0.1, 0.05)
    counts = piecewise_log_linear_counts(100.0, slopes, lengths)
    assert len(counts) == sum(lengths)
    assert counts[0] == pytest.approx(100.0, rel=1e-12)
    day = 0
    for slope, length in zip(slopes, lengths):
        for _ in range(length):
            if day + 1 >= len(counts):
                break
            got = math.log(counts[day + 1]) - math.log(counts[day])
            assert got == pytest.approx(slope, abs=1e-12)
            day += 1


def test_piecewise_counts_reject_bad_arguments():
    with pytest.raises(ConfigError):
        piecewise_log_linear_counts(100.0, (0.1,), (5, 5))
    with pytest.raises(ConfigError):
        piecewise_log_linear_counts(0.0, (0.1,), (5,))
    with pytest.raises(ConfigError):
        piecewise_log_linear_counts(100.0, (0.1,), (0,))
    with pytest.raises(ConfigError):
        piecewise_log_linear_counts(100.0, (0.1,), (5,), noise_sigma=0.02)


def test_piecewise_counts_noise_needs_and_uses_the_rng():
    lengths = (10,)
    a = piecewise_log_linear_counts(
        100.0, (0.1,), lengths, rng=np.random.default_rng(1), noise_sigma=0.05
    )
    b = piecewise_log_linear_counts(
        100.0, (0.1,), lengths, rng=np.random.default_rng(1), noise_sigma=0.05
    )
    c = piecewise_log_linear_counts(100.0, (0.1,), lengths)
    assert a == b
    assert a != c


def test_synth_demographics_plants_a_recoverable_cell():
    rng = np.random.default_rng(8)
    response = {f"m{i:02d}": 0.02 + 0.01 * i for i in range(12)}
    table = synth_demographics(rng, response)
    assert sorted(table) == sorted(GROUP_SUBCATS)
    for group in sorted(table):
        assert subcategories(table[group]) == sorted(GROUP_SUBCATS[group])
        for metro in response:
            for subcat in GROUP_SUBCATS[group]:
                assert 0.0 <= table[group][metro][subcat] <= 100.0
    group, subcat = PLANTED_CELL
    ys = [response[m] for m in sorted(response)]
    xs = [table[group][m][subcat] for m in sorted(response)]
    assert np.corrcoef(xs, ys)[0, 1] > 0.99


def test_synth_demographics_can_skip_planting():
    rng = np.random.default_rng(8)
    response = {f"m{i:02d}": 0.02 + 0.01 * i for i in range(12)}
    table = synth_demographics(rng, response, planted=None)
    assert sorted(table) == sorted(GROUP_SUBCATS)


def test_synth_weather_covers_every_metro_day():
    window = DateInterval(date(2020, 3, 1), date(2020, 3, 10))
    table = synth_weather(np.random.default_rng(5), ["m1", "m2"], window)
    assert sorted(table) == ["m1", "m2"]
    for by_day in table.values():
        assert list(by_day) == list(window.dates())
        for kind, high, low in by_day.values():
            assert kind in FIXTURE_WEATHER_KINDS
            assert high >= low


def test_manifest_is_json_ready_and_complete():
    bundle = make_bundle(1, n_metros=2)
    manifest = bundle.manifest()
    text = json.dumps(manifest, sort_keys=True)
    assert json.loads(text) == manifest
    assert manifest["seed"] == 1
    assert manifest["globals"] == {
        "tau1": FIXTURE_TAU1,
        "tau2": FIXTURE_TAU2,
        "mu": FIXTURE_MU,
        "s0_scale": 1e5,
    }
    for metro, entry in manifest["metros"].items():
        truth = bundle.truths[metro]
        assert entry["beta"] == list(truth.params.beta)
        assert entry["gamma"] == list(truth.params.gamma)
        assert len(entry["counties"]) == 2
