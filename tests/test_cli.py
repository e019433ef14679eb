import csv
import dataclasses
import faulthandler
import hashlib
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
from datetime import date, timedelta

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from epigrowth import cli
from epigrowth.cli import PROTOCOL_HEADER, TABLE2_HEADER, main
from epigrowth.errors import InsufficientDataError, ValidationError
from epigrowth.sir import PiecewiseParams, SirState


FIT_FLAGS = ["--grid-points", "21", "--refinements", "1"]


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """gen-fixtures -> segment -> fit -> correlate, shared by the smoke tests."""
    root = tmp_path_factory.mktemp("pipeline")
    out = str(root)
    assert main(["gen-fixtures", "--seed", "2", "--metros", "3", "--out", out]) == 0
    assert (
        main(
            [
                "segment",
                "--cases", os.path.join(out, "cases.csv"),
                "--metro-map", os.path.join(out, "metro_map.csv"),
                "--out", out,
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "fit",
                "--cases", os.path.join(out, "cases.csv"),
                "--metro-map", os.path.join(out, "metro_map.csv"),
                "--periods", os.path.join(out, "periods.csv"),
                *FIT_FLAGS,
                "--out", out,
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "correlate",
                "--cases", os.path.join(out, "cases.csv"),
                "--metro-map", os.path.join(out, "metro_map.csv"),
                "--periods", os.path.join(out, "periods.csv"),
                "--demographics", os.path.join(out, "demographics.csv"),
                "--weather", os.path.join(out, "weather.csv"),
                "--out", out,
            ]
        )
        == 0
    )
    return out


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_gen_fixtures_writes_the_bundle(tmp_path):
    out = str(tmp_path)
    assert main(["gen-fixtures", "--seed", "1", "--metros", "2", "--out", out]) == 0
    names = (
        "cases.csv",
        "metro_map.csv",
        "demographics.csv",
        "weather.csv",
        "inflow.csv",
        "fixture_params.json",
    )
    for name in names:
        assert os.path.exists(os.path.join(out, name)), name
    with open(os.path.join(out, "fixture_params.json")) as fh:
        manifest = json.load(fh)
    assert manifest["seed"] == 1
    assert len(manifest["metros"]) == 2


def test_segment_emits_periods_and_protocol(pipeline_dir):
    periods = _read_rows(os.path.join(pipeline_dir, "periods.csv"))
    assert periods[0] == ["metro", "period_index", "start", "end", "slope", "intercept", "r2"]
    assert len(periods) == 1 + 3 * 5
    protocol = _read_rows(os.path.join(pipeline_dir, "protocol.csv"))
    assert tuple(protocol[0]) == PROTOCOL_HEADER
    assert len(protocol) == 1 + 3
    for row in protocol[1:]:
        assert row[1] == "NA" or date.fromisoformat(row[1])
        assert row[2] == "NA" or date.fromisoformat(row[2])
    dated = [row for row in protocol[1:] if row[2] != "NA"]
    assert dated == sorted(dated, key=lambda r: (r[2], r[0]))


def test_fit_emits_table2_and_report(pipeline_dir):
    table = _read_rows(os.path.join(pipeline_dir, "table2.csv"))
    assert tuple(table[0]) == TABLE2_HEADER
    assert len(table) == 1 + 3
    for row in table[1:]:
        for cell in row[1:]:
            assert cell == "NA" or float(cell) >= 0.0
    with open(os.path.join(pipeline_dir, "fit_report.json")) as fh:
        report = json.load(fh)
    assert report["config"]["grid_points"] == 21
    entry = report["metros"]["metro-01"]
    for model in ("delayed", "reinfect"):
        assert len(entry[model]["beta"]) == 5
        assert entry[model]["as_percent"] >= 0.0
    assert entry["reinfect"]["mu"] == 0.0  # --mu not passed


def test_correlate_emits_study_tables(pipeline_dir):
    table3 = _read_rows(os.path.join(pipeline_dir, "table3.csv"))
    assert table3[0] == ["group", "subcategory", "p_value", "group_r2"]
    assert len(table3) > 1
    for name in ("table4.csv", "table5.csv", "table6.csv"):
        rows = _read_rows(os.path.join(pipeline_dir, name))
        assert rows[0] == ["metro", "P1", "P2", "P3", "P4", "P5"]
        assert len(rows) == 1 + 3
    with open(os.path.join(pipeline_dir, "correlate_report.json")) as fh:
        report = json.load(fh)
    assert set(report["studies"]) == {
        "demographic", "weather-type", "weather-high-temp", "weather-low-temp"
    }
    assert len(report["response"]) == 3


def test_simulate_from_fit_report(pipeline_dir, tmp_path, capsys):
    out = str(tmp_path)
    rc = main(
        [
            "simulate",
            "--model", "reinfect",
            "--fit-report", os.path.join(pipeline_dir, "fit_report.json"),
            "--metro", "metro-01",
            "--cases", os.path.join(pipeline_dir, "cases.csv"),
            "--metro-map", os.path.join(pipeline_dir, "metro_map.csv"),
            "--out", out,
        ]
    )
    assert rc == 0
    traj = _read_rows(os.path.join(out, "trajectory.csv"))
    assert traj[0] == ["day", "s", "i", "r"]
    assert len(traj) == 1 + 122  # default window
    plot = _read_rows(os.path.join(out, "plotdata.csv"))
    assert plot[0] == ["day", "log_i_sim", "log_i_data"]
    data_cells = [row[2] for row in plot[1:]]
    assert any(cell != "NA" for cell in data_cells)


def test_metro_name_with_a_comma_survives_the_pipeline(tmp_path):
    name = "Dallas-Fort Worth, TX"
    fx, out = tmp_path / "fx", str(tmp_path / "out")
    assert main(["gen-fixtures", "--seed", "2", "--metros", "3", "--out", str(fx)]) == 0
    for path in fx.glob("*.csv"):
        rows = [[cell.replace("metro-01", name) for cell in row] for row in _read_rows(path)]
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    cases = ["--cases", str(fx / "cases.csv"), "--metro-map", str(fx / "metro_map.csv")]
    periods = ["--periods", os.path.join(out, "periods.csv")]
    assert main(["segment", *cases, "--out", out]) == 0
    assert main(["fit", *cases, *periods, *FIT_FLAGS, "--out", out]) == 0
    assert main(["correlate", *cases, *periods, "--demographics", str(fx / "demographics.csv"),
                 "--weather", str(fx / "weather.csv"), "--out", out]) == 0
    assert main(["simulate", "--model", "reinfect", "--fit-report", f"{out}/fit_report.json",
                 "--metro", name, *cases, "--out", out]) == 0
    for table in ("periods.csv", "protocol.csv", "table2.csv", "table4.csv"):
        assert name in {row[0] for row in _read_rows(os.path.join(out, table))[1:]}, table
    plot = _read_rows(os.path.join(out, "plotdata.csv"))
    assert any(row[2] != "NA" for row in plot[1:])  # the metro's case data was found


def test_simulate_with_constant_rates(tmp_path, capsys):
    out = str(tmp_path)
    rc = main(
        [
            "simulate",
            "--model", "original",
            "--beta", "2e-6",
            "--gamma", "0.1",
            "--i0", "10",
            "--out", out,
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "max relative conservation drift" in printed
    plot = _read_rows(os.path.join(out, "plotdata.csv"))
    assert all(row[2] == "NA" for row in plot[1:])  # no --cases wired in


def test_exit_code_for_bad_config(tmp_path):
    assert main(["gen-fixtures", "--seed", "abc", "--out", str(tmp_path)]) == 4
    assert main(["gen-fixtures", "--metros", "0", "--out", str(tmp_path)]) == 4
    assert main(["simulate", "--model", "nope", "--beta", "1", "--gamma", "1", "--i0", "1"]) == 4
    assert main(["correlate", "--cases", "x", "--metro-map", "y", "--periods", "z"]) == 4


def test_exit_code_for_missing_file(tmp_path):
    rc = main(
        [
            "segment",
            "--cases", str(tmp_path / "missing.csv"),
            "--metro-map", str(tmp_path / "also-missing.csv"),
            "--out", str(tmp_path),
        ]
    )
    assert rc == 3


def test_exit_code_for_malformed_input(tmp_path):
    bad = tmp_path / "cases.csv"
    bad.write_text("date,region,count\n2020-03-01,m1,not-a-number\n")
    metro_map = tmp_path / "map.csv"
    metro_map.write_text("county,metro\nm1,metro-01\n")
    rc = main(
        [
            "segment",
            "--cases", str(bad),
            "--metro-map", str(metro_map),
            "--out", str(tmp_path),
        ]
    )
    assert rc == 2


def test_config_file_fills_unset_flags(tmp_path):
    out = str(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=7\nmetros=2\n")
    assert main(["gen-fixtures", "--config", str(cfg), "--out", out]) == 0
    with open(os.path.join(out, "fixture_params.json")) as fh:
        assert json.load(fh)["seed"] == 7


def test_explicit_flag_beats_config_file(tmp_path):
    out = str(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=7\nmetros=2\n")
    assert main(["gen-fixtures", "--config", str(cfg), "--seed", "9", "--out", out]) == 0
    with open(os.path.join(out, "fixture_params.json")) as fh:
        assert json.load(fh)["seed"] == 9


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("wibble=1\n")
    assert main(["gen-fixtures", "--config", str(cfg), "--out", str(tmp_path)]) == 4


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


def test_tourism_reads_one_inflow_value_per_step(tmp_path, capsys):
    # The default window is 122 days: 121 steps, the last leaving day 120 with inflow o[120].
    def run(values, name):
        inflow = tmp_path / f"{name}.csv"
        inflow.write_text("day,o\n" + "".join(f"{d},{v}\n" for d, v in enumerate(values)))
        rc = main(["simulate", "--model", "tourism", "--beta", "1e-6", "--gamma", "0.1", "--i0", "10",
                   "--epsilon", "0.5", "--inflow", str(inflow), "--out", str(tmp_path / name)])
        return rc, _read_rows(tmp_path / name / "trajectory.csv") if rc == 0 else None

    values = [float(3 + d % 7) for d in range(121)]
    rc, exact = run(values, "exact")
    assert rc == 0 and len(exact) == 1 + 122
    assert run([*values, 50.0], "longer") == (0, exact)
    rc, last = run([*values[:-1], 50.0], "last")
    assert rc == 0 and last[:-1] == exact[:-1] and last[-1] != exact[-1]
    capsys.readouterr()
    assert run(values[:-1], "short") == (4, None)
    assert _one_error_line(capsys) == "error: inflow series covers 120 days, need 121 steps"


def test_simulate_non_finite_state_exits_2_naming_day_and_period(tmp_path, capsys):
    # I and R together pass the float range: the removals carry R past it on day 2
    rc = main(
        [
            "simulate",
            "--model", "original",
            "--beta", "0",
            "--gamma", "0.6",
            "--s0", "1",
            "--i0", "1e308",
            "--r0", "1e308",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 2
    line = _one_error_line(capsys)
    assert "original" in line and "day 2" in line and "period 1" in line
    assert not (tmp_path / "trajectory.csv").exists()


def test_non_utf8_input_exits_2(tmp_path, capsys):
    cases = tmp_path / "cases.csv"
    cases.write_bytes(b"date,region,count\n2020-03-01,m\xff1,5\n")
    metro_map = tmp_path / "map.csv"
    metro_map.write_text("county,metro\nm1,metro-01\n")
    rc = main(["segment", "--cases", str(cases), "--metro-map", str(metro_map), "--out", str(tmp_path)])
    assert rc == 2
    assert "UTF-8" in _one_error_line(capsys)


def test_correlate_with_a_wrong_weather_column_exits_2(pipeline_dir, tmp_path, capsys):
    weather = tmp_path / "weather.csv"
    with open(os.path.join(pipeline_dir, "weather.csv")) as fh:
        weather.write_text(fh.read().replace("high", "hi", 1))
    rc = main(
        [
            "correlate",
            "--cases", os.path.join(pipeline_dir, "cases.csv"),
            "--metro-map", os.path.join(pipeline_dir, "metro_map.csv"),
            "--periods", os.path.join(pipeline_dir, "periods.csv"),
            "--weather", str(weather),
            "--out", str(tmp_path),
        ]
    )
    assert rc == 2
    assert _one_error_line(capsys) == "error: weather CSV must start with header 'metro,date,type,high,low'"


def test_non_utf8_config_exits_4(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"seed=7\nmetros=\xff\n")
    assert main(["gen-fixtures", "--config", str(cfg), "--out", str(tmp_path)]) == 4
    assert "UTF-8" in _one_error_line(capsys)


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda e: e["reinfect"].pop("init"), "metros.metro-01.reinfect.init"),
        (lambda e: e["reinfect"]["init"].pop("s"), "metros.metro-01.reinfect.init.s"),
        (lambda e: e["reinfect"]["gamma"].__setitem__(3, "fast"), "metros.metro-01.reinfect.gamma.3"),
        (lambda e: e["reinfect"].__setitem__("tau2", "14"), "metros.metro-01.reinfect.tau2"),
        (lambda e: e.pop("periods"), "metros.metro-01.periods"),
        (lambda e: e["periods"][2].pop("end"), "metros.metro-01.periods.2.end"),
        (lambda e: e["periods"][1].__setitem__("start", e["periods"][1]["start"].replace("-", "")),
         "metros.metro-01.periods.1"),
        (lambda e: e["periods"][1].__setitem__("start", "{}-W{:02}-{}".format(
            *date.fromisoformat(e["periods"][1]["start"]).isocalendar())), "metros.metro-01.periods.1"),
    ],
)
def test_simulate_fit_report_with_bad_field_exits_2(pipeline_dir, tmp_path, capsys, edit, field):
    with open(os.path.join(pipeline_dir, "fit_report.json")) as fh:
        report = json.load(fh)
    edit(report["metros"]["metro-01"])
    path = tmp_path / "fit_report.json"
    path.write_text(json.dumps(report))
    rc = main(
        [
            "simulate",
            "--model", "reinfect",
            "--fit-report", str(path),
            "--metro", "metro-01",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 2
    assert f"field {field} " in _one_error_line(capsys)


HUGE = int("9" * 400)  # JSON reads it as an int that no float can hold
TOO_LARGE = "must be finite and >= 0, got a number too large for a float"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: m["beta"].pop(), "need 5 betas and 5 gammas"),
        (lambda m: m["beta"].__setitem__(2, -1e-6), "beta must be finite and >= 0, got -1e-06"),
        (lambda m: m["beta"].__setitem__(0, -1.0), "beta must be finite and >= 0, got -1.0"),
        (lambda m: m["gamma"].pop(), "need 5 betas and 5 gammas"),
        (lambda m: m["init"].__setitem__("s", -5.0), "s must be finite and >= 0, got -5.0"),
        (lambda m: m.__setitem__("tau1", -1), "tau1 must be a non-negative integer, got -1"),
        (lambda m: m.__setitem__("mu", -0.5), "mu must be finite and >= 0, got -0.5"),
        (lambda m: m["beta"].__setitem__(0, HUGE), f"beta {TOO_LARGE}"),
        (lambda m: m.__setitem__("mu", HUGE), f"mu {TOO_LARGE}"),
        (lambda m: m["init"].__setitem__("s", HUGE), f"s {TOO_LARGE}"),
    ],
)
def test_simulate_fit_report_with_bad_value_exits_2(pipeline_dir, tmp_path, capsys, edit, message):
    with open(os.path.join(pipeline_dir, "fit_report.json")) as fh:
        report = json.load(fh)
    edit(report["metros"]["metro-01"]["reinfect"])
    path = tmp_path / "fit_report.json"
    path.write_text(json.dumps(report))
    rc = main(["simulate", "--model", "reinfect", "--fit-report", str(path), "--metro", "metro-01",
               "--out", str(tmp_path)])
    assert rc == 2
    assert _one_error_line(capsys) == f"error: {path}: metros.metro-01.reinfect: {message}"


def _later(day: str, days: int) -> str:
    return (date.fromisoformat(day) + timedelta(days=days)).isoformat()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda ps: ps.pop(), "expected 5 periods, got 4"),
        (lambda ps: ps[2].__setitem__("start", _later(ps[2]["start"], 1)),
         "period 3 starts {ps[2][start]}, expected the day after {ps[1][end]}"),
        (lambda ps: ps[0].__setitem__("end", _later(ps[0]["start"], -1)),
         "period 1: end {ps[0][end]} precedes start {ps[0][start]}"),
        (lambda ps: ps.append({"start": _later(ps[4]["end"], 1), "end": _later(ps[4]["end"], 1)}),
         "period index must be 1..5, got 6"),
    ],
    ids=["one-period-dropped", "one-day-gap", "end-before-start", "sixth-period"],
)
def test_simulate_fit_report_with_bad_periods_exits_2(pipeline_dir, tmp_path, capsys, edit, message):
    with open(os.path.join(pipeline_dir, "fit_report.json")) as fh:
        report = json.load(fh)
    periods = report["metros"]["metro-01"]["periods"]
    edit(periods)
    path = tmp_path / "fit_report.json"
    path.write_text(json.dumps(report))
    rc = main(["simulate", "--model", "reinfect", "--fit-report", str(path), "--metro", "metro-01",
               "--out", str(tmp_path)])
    assert rc == 2
    assert _one_error_line(capsys) == f"error: {path}: metros.metro-01.periods: {message.format(ps=periods)}"


def test_simulate_fit_report_checks_every_type_before_any_value(pipeline_dir, tmp_path, capsys):
    with open(os.path.join(pipeline_dir, "fit_report.json")) as fh:
        report = json.load(fh)
    fitted = report["metros"]["metro-01"]["reinfect"]
    fitted["beta"][0], fitted["init"]["s"] = -1.0, "many"
    path = tmp_path / "fit_report.json"
    path.write_text(json.dumps(report))
    rc = main(["simulate", "--model", "reinfect", "--fit-report", str(path), "--metro", "metro-01",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "field metros.metro-01.reinfect.init.s has the wrong type" in _one_error_line(capsys)


def test_simulate_fit_report_nested_too_deeply_exits_2_naming_the_file(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    rc = main(["simulate", "--model", "reinfect", "--fit-report", str(path), "--metro", "metro-01",
               "--out", str(tmp_path)])
    assert rc == 2
    assert _one_error_line(capsys).startswith(f"error: {path}: ")


def test_fit_writes_every_field_simulate_reads(pipeline_dir):
    """Each model entry of a real fit report has every key of the shape the reader declares, with its
    declared type, and that shape is keyed as the records it builds."""
    def conforms(value, shape):
        if isinstance(shape, list):
            return isinstance(value, list) and all(conforms(v, shape[0]) for v in value)
        if isinstance(shape, dict):
            return isinstance(value, dict) and all(k in value and conforms(value[k], item)
                                                   for k, item in shape.items())
        return isinstance(value, shape) and not isinstance(value, bool)

    assert set(cli._REPORT_MODEL) == {f.name for f in dataclasses.fields(PiecewiseParams)} | {"init"}
    assert set(cli._REPORT_MODEL["init"]) == {f.name for f in dataclasses.fields(SirState)}
    with open(os.path.join(pipeline_dir, "fit_report.json")) as fh:
        entries = json.load(fh)["metros"].values()
    fitted = [entry[model] for entry in entries for model in cli.FIT_MODELS if "error" not in entry[model]]
    assert len(fitted) == 2 * len(entries) == 6
    assert all(conforms(model, cli._REPORT_MODEL) for model in fitted)
    assert all(conforms(entry["periods"], cli._REPORT_PERIODS) for entry in entries)


def test_fit_with_a_grid_no_array_can_hold_exits_4(pipeline_dir, tmp_path, capsys):
    rc = main(
        [
            "fit",
            "--cases", os.path.join(pipeline_dir, "cases.csv"),
            "--metro-map", os.path.join(pipeline_dir, "metro_map.csv"),
            "--periods", os.path.join(pipeline_dir, "periods.csv"),
            "--grid-points", "1" + "0" * 20,
            "--out", str(tmp_path),
        ]
    )
    assert rc == 4
    assert _one_error_line(capsys) == (
        "error: a grid of 100000000000000000000 points per axis is too large"
    )


@pytest.mark.parametrize("flag, value", [("--tau1", "-1"), ("--tau2", "-3"), ("--mu", "-1")])
def test_fit_rejects_negative_delay_or_mu_before_tuning(pipeline_dir, tmp_path, capsys, flag, value):
    rc = main(
        [
            "fit",
            "--cases", os.path.join(pipeline_dir, "cases.csv"),
            "--metro-map", os.path.join(pipeline_dir, "metro_map.csv"),
            "--periods", os.path.join(pipeline_dir, "periods.csv"),
            *FIT_FLAGS,
            flag, value,
            "--out", str(tmp_path),
        ]
    )
    assert rc == 4
    assert flag in _one_error_line(capsys)
    assert not (tmp_path / "fit_report.json").exists()


@pytest.mark.parametrize(
    "flag, value", [("--tau1", "-1"), ("--tau2", "-3"), ("--mu", "-0.2"), ("--epsilon", "-0.5")]
)
def test_simulate_rejects_negative_delay_or_rate_naming_the_flag(tmp_path, capsys, flag, value):
    rc = main(
        [
            "simulate",
            "--model", "delayed",
            "--beta", "1e-6",
            "--gamma", "0.1",
            "--i0", "1",
            flag, value,
            "--out", str(tmp_path),
        ]
    )
    assert rc == 4
    assert flag in _one_error_line(capsys)
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "argv, rc, message",
    [
        (["simulate", "--model", "delayed", "--gamma", "0.1", "--i0", "1", "--beta", "-1e-6"],
         4, "--beta must be >= 0, got -1e-06"),
        (["simulate", "--model", "delayed", "--beta", "1e-6", "--i0", "1", "--gamma", "-1E+2"],
         4, "--gamma must be >= 0, got -100.0"),
        (["fit", "--cases", "c.csv", "--metro-map", "m.csv", "--periods", "p.csv", "--mu", "-1e-3"],
         4, "--mu must be >= 0, got -0.001"),
        (["segment", "--cases", "c.csv", "--metro-map", "m.csv", "--radius", "-1e1"],
         4, "--radius: expected an integer, got '-1e1'"),
        (["gen-fixtures", "--seed", "-2e3"], 4, "--seed: expected an integer, got '-2e3'"),
    ],
)
def test_negative_exponent_value_reads_as_the_flag_value(tmp_path, capsys, argv, rc, message):
    *head, flag, value = argv
    for form in ([*head, flag, value], [*head, f"{flag}={value}"]):
        assert main([*form, "--out", str(tmp_path)]) == rc
        assert _one_error_line(capsys) == f"error: {message}"


def _use_cores(monkeypatch, n):
    """Make the CLI see n usable cores, so n > 1 runs per-metro work in forked workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


# Three cores split the four metros into uneven chunks.
@pytest.mark.parametrize("cores", [1, 2, 3])
def test_fit_output_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, cores):
    _use_cores(monkeypatch, cores)
    out = str(tmp_path)
    inputs = ["--cases", str(tmp_path / "cases.csv"), "--metro-map", str(tmp_path / "metro_map.csv")]
    assert main(["gen-fixtures", "--seed", "0", "--metros", "4", "--out", out]) == 0
    assert main(["segment", *inputs, "--out", out]) == 0
    periods = ["--periods", str(tmp_path / "periods.csv")]
    assert main(["fit", *inputs, *periods, "--mu", "0.2", *FIT_FLAGS, "--out", out]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("periods.csv", "protocol.csv", "fit_report.json", "table2.csv")
    }
    assert digests == {
        "periods.csv": "07085dbaa7a8693c218b1dc0985e6134d8b818eff7450aeb280e427f79097045",
        "protocol.csv": "678699a8422660d55dd311c7f8c73002a3cd0addf7fba493d66059f6b713c90b",
        "fit_report.json": "103079918dff77b19120c15666689e5f911738759190719b29cdcbbc4a9d58c4",
        "table2.csv": "1b68700ada713ad996f3fa3640fca02a90f95fe7e1534774f029b0fb0078b7bf",
    }


def test_default_grid_fit_output_bytes_are_pinned(tmp_path):
    # The default 101 x 101 grid and 3 refinements: each kernel call scores one job, and on the
    # full grid many of its columns die within a few steps and are dropped.
    out = str(tmp_path)
    inputs = ["--cases", f"{out}/cases.csv", "--metro-map", f"{out}/metro_map.csv"]
    assert main(["gen-fixtures", "--seed", "0", "--metros", "2", "--out", out]) == 0
    assert main(["segment", *inputs, "--out", out]) == 0
    assert main(["fit", *inputs, "--periods", f"{out}/periods.csv", "--mu", "0.2", "--out", out]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("table2.csv", "fit_report.json")}
    assert digests == {
        "table2.csv": "b4253594e406d2afa246c2543dc42fb6a747137bbcad05ee3cc940b9f0e72cd6",
        "fit_report.json": "fd79fc6bf9c553e2599a7c9b22a3b6157880e6f46a3b23fd893688ec954bfc76",
    }


def test_simulate_output_bytes_are_pinned(tmp_path, capsys):
    out = str(tmp_path)
    inputs = ["--cases", f"{out}/cases.csv", "--metro-map", f"{out}/metro_map.csv"]
    assert main(["gen-fixtures", "--seed", "0", "--metros", "4", "--out", out]) == 0
    assert main(["segment", *inputs, "--out", out]) == 0
    periods = ["--periods", f"{out}/periods.csv"]
    assert main(["fit", *inputs, *periods, "--mu", "0.2", *FIT_FLAGS, "--out", out]) == 0
    capsys.readouterr()
    fitted = ["--fit-report", f"{out}/fit_report.json", "--metro", "metro-01", *inputs]
    runs = {
        "delayed": ["--model", "delayed", *fitted],
        "reinfect": ["--model", "reinfect", *fitted],
        "tourism": ["--model", "tourism", "--beta", "1e-6", "--gamma", "0.1", "--i0", "10",
                    "--epsilon", "0.5", "--inflow", f"{out}/inflow.csv"],
        "overdraw": ["--model", "original", "--beta", "1", "--gamma", "0.1", "--i0", "10", "--s0", "1e5"],
    }
    got = {}
    for name, argv in runs.items():
        run_out = tmp_path / name
        assert main(["simulate", *argv, "--out", str(run_out)]) == 0
        got[name] = [
            capsys.readouterr().out.replace(str(run_out), "OUT"),
            *(hashlib.sha256((run_out / f).read_bytes()).hexdigest()
              for f in ("trajectory.csv", "plotdata.csv")),
        ]
    assert got == {
        "delayed": [
            "max relative conservation drift: 9.885280456542959e-16\n"
            "simulate: wrote 122 day(s) to OUT\n",
            "03f4efec941fcea21176a01901f3d789c0667b2a2425339b794b21af9ab33f10",
            "1afc649a88237eec265e922991b310e3c57b4cc924a927bbd49e37f30696cc71",
        ],
        "reinfect": [
            "max relative conservation drift: 7.060914611816399e-16\n"
            "simulate: wrote 122 day(s) to OUT\n",
            "1500415eb214268727544f56961c8fe4f083341092b5440c6aba7310feae2f36",
            "9f7d82adcb2a4120bc2d2902bd09ae938813acb81e791c6aa316f80de1ee3a76",
        ],
        "tourism": [
            "max relative conservation drift: 7.779512510165083e-16\n"
            "simulate: wrote 122 day(s) to OUT\n",
            "34a71425977b44c35f9f9858e1a745c9aa98d2106359e7fc297da54715c58afb",
            "15fd00a02bf39a1098a7ab20d5a51c6ce99b5f315de1c8b57207622392c9af6c",
        ],
        "overdraw": [
            "max relative conservation drift: 2.910092036469723e-16\n"
            "simulate: wrote 122 day(s) to OUT\n",
            "31484c0f10ccca2f3f62576ba3e6444b7169cc7c990fa7b2bb95b5a1b6923dd7",
            "d0392843117e072d1324c49fdc16783fe38d484a360fe6e4e0da7fa870e3318b",
        ],
    }


def test_fixture_and_correlate_output_bytes_are_pinned(tmp_path):
    out = str(tmp_path)
    assert main(["gen-fixtures", "--seed", "0", "--metros", "4", "--out", out]) == 0
    inputs = ["--cases", f"{out}/cases.csv", "--metro-map", f"{out}/metro_map.csv"]
    assert main(["segment", *inputs, "--out", out]) == 0
    assert main(["correlate", *inputs, "--periods", f"{out}/periods.csv",
                 "--demographics", f"{out}/demographics.csv", "--weather", f"{out}/weather.csv",
                 "--out", out]) == 0
    names = ("cases.csv", "metro_map.csv", "demographics.csv", "weather.csv", "inflow.csv",
             "fixture_params.json", "table3.csv", "table4.csv", "table5.csv", "table6.csv",
             "correlate_report.json")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names}
    assert digests == {
        "cases.csv": "2c64b4eaeaa26256f900c03615d719325d2497072c324c1ad9cf900c8a244d9e",
        "metro_map.csv": "e1aede1cc1d8f99795c4694d210e61616fc2cad2fe428c013fe088e3c887b176",
        "demographics.csv": "b4175d283e2b9976772a53c741584d2f76c9b694bbd5b2360558b23be1d4e0ce",
        "weather.csv": "4e30f7782ab7c3eb87724d8f3a6946eebc5858a73354e9aad6762d8c88cc145c",
        "inflow.csv": "1f5ef86c666b407d1fb76d539b1eda0ad3e2e8a7b680b45f7b3c4cc4b910c68f",
        "fixture_params.json": "3760844a306da8f445521ddc40d02762ba952db015e4db6bebe8411511ab1392",
        "table3.csv": "631dfde5e6eeb19cb207d894d4be9bc0052409c73466a57573d7c0a6500255fa",
        "table4.csv": "2ac7286295bff5d62960cd0ef322d3dccb4d6b889d6b0c834b5661fa954e213b",
        "table5.csv": "b7d455a1c7cf8ff5be5ae75fb660063a5a00db815200e30d450d909a639d83e0",
        "table6.csv": "6312d2b64dfb4e1843f6c835bac8182090a324d6b0a308bf521bce9a14f2cf00",
        "correlate_report.json": "d1db5157e05cc9149f584cfb8b3383fff93ef4d56498ca1cfe8e1a67730c1c7c",
    }


def _plant(monkeypatch, name, region, model, exc):
    """Make cli.<name> raise exc for one metro (and, for tune, one model).

    Forked workers inherit the patched module, so the failure happens inside them.
    """
    real = getattr(cli, name)

    def planted(*args, **kwargs):
        call_model, series = (args[0], args[1]) if name == "TuneJob" else (model, args[0])
        if series.region == region and call_model == model:
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, planted)


def test_worker_failures_read_as_in_process_ones(pipeline_dir, tmp_path, monkeypatch, capsys):
    """Per-metro errors give the same entries, exit code and warning order pooled or not."""
    # a metro with periods but no case data sits between metro-01 and metro-02
    rows = _read_rows(os.path.join(pipeline_dir, "periods.csv"))
    rows += [["metro-01b", *row[1:]] for row in rows if row[0] == "metro-01"]
    periods = tmp_path / "periods.csv"
    with open(periods, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    inputs = [
        "--cases", os.path.join(pipeline_dir, "cases.csv"),
        "--metro-map", os.path.join(pipeline_dir, "metro_map.csv"),
    ]
    _plant(monkeypatch, "TuneJob", "metro-02", "delayed", ValidationError("planted failure"))
    _plant(monkeypatch, "TuneJob", "metro-03", "reinfect", ValidationError("planted too"))
    _plant(monkeypatch, "optimize_boundaries", "metro-02", None,
           InsufficientDataError("planted shortage"))
    runs = []
    for cores in (1, 2):
        _use_cores(monkeypatch, cores)
        out = tmp_path / str(cores)
        rc_fit = main(["fit", *inputs, "--periods", str(periods), *FIT_FLAGS, "--out", str(out)])
        rc_segment = main(["segment", *inputs, "--out", str(out)])
        files = {name: (out / name).read_bytes()
                 for name in ("fit_report.json", "table2.csv", "periods.csv", "protocol.csv")}
        runs.append((rc_fit, rc_segment, capsys.readouterr().err.splitlines(), files))
    assert runs[0] == runs[1]
    rc_fit, rc_segment, err, files = runs[0]
    assert (rc_fit, rc_segment) == (0, 0)
    assert err == [
        "warning: metro-01b: no case data; skipped",
        "warning: metro-02/delayed: planted failure",
        "warning: metro-03/reinfect: planted too",
        "warning: metro-02: planted shortage; skipped",
    ]
    report = json.loads(files["fit_report.json"])["metros"]
    assert report["metro-02"]["delayed"] == {"error": "planted failure"}
    assert report["metro-03"]["reinfect"] == {"error": "planted too"}
    assert "beta" in report["metro-02"]["reinfect"] and "beta" in report["metro-03"]["delayed"]


@pytest.mark.parametrize("cores", [1, 2])
def test_unexpected_worker_exception_propagates_out_of_main(pipeline_dir, tmp_path, monkeypatch,
                                                            cores):
    _use_cores(monkeypatch, cores)
    _plant(monkeypatch, "TuneJob", "metro-02", "reinfect", RuntimeError("planted crash"))
    argv = [
        "fit",
        "--cases", os.path.join(pipeline_dir, "cases.csv"),
        "--metro-map", os.path.join(pipeline_dir, "metro_map.csv"),
        "--periods", os.path.join(pipeline_dir, "periods.csv"),
        *FIT_FLAGS,
        "--out", str(tmp_path),
    ]
    faulthandler.dump_traceback_later(120, exit=True)  # a hung pool fails the run, not CI time
    try:
        with pytest.raises(RuntimeError, match="^planted crash$"):
            main(argv)
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):  # no child is left, plain forks and zombies included
        os.waitpid(-1, os.WNOHANG)
    assert not (tmp_path / "fit_report.json").exists()


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("exc, line", [(MemoryError(), "error: out of memory"),
                                       (MemoryError("Unable to allocate"), "error: Unable to allocate")],
                         ids=["bare", "with-message"])
def test_running_out_of_memory_exits_4_with_one_error_line(pipeline_dir, tmp_path, monkeypatch, capsys,
                                                           cores, exc, line):
    _use_cores(monkeypatch, cores)
    _plant(monkeypatch, "TuneJob", "metro-02", "reinfect", exc)
    rc = main(["fit", "--cases", os.path.join(pipeline_dir, "cases.csv"),
               "--metro-map", os.path.join(pipeline_dir, "metro_map.csv"),
               "--periods", os.path.join(pipeline_dir, "periods.csv"), *FIT_FLAGS, "--out", str(tmp_path)])
    assert rc == 4
    assert _one_error_line(capsys) == line
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):  # no child is left, plain forks and zombies included
        os.waitpid(-1, os.WNOHANG)
    assert not (tmp_path / "fit_report.json").exists()


@pytest.mark.parametrize("region, ending", [("metro-01", "exited with status 1"),
                                              ("metro-03", "was killed by signal 9")])
def test_a_worker_that_dies_without_a_result_exits_3_with_one_error_line(pipeline_dir, tmp_path, monkeypatch,
                                                                       capsys, region, ending):
    # Two chunks: metro-01 dies in the first, whose pipe is read first, and metro-03 in the second.
    _use_cores(monkeypatch, 2)
    parent, real = os.getpid(), cli.TuneJob

    def dying(*args, **kwargs):
        if os.getpid() != parent and args[1].region == region:
            if ending.startswith("exited"):
                os._exit(1)
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "TuneJob", dying)
    argv = ["fit", "--cases", os.path.join(pipeline_dir, "cases.csv"),
            "--metro-map", os.path.join(pipeline_dir, "metro_map.csv"),
            "--periods", os.path.join(pipeline_dir, "periods.csv"), *FIT_FLAGS, "--out", str(tmp_path)]
    faulthandler.dump_traceback_later(120, exit=True, file=sys.__stderr__)  # a hang fails the run
    try:
        rc = main(argv)
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert rc == 3
    assert re.fullmatch(rf"error: worker process \d+ {ending} before sending its results", _one_error_line(capsys))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not (tmp_path / "fit_report.json").exists()


def test_a_forked_fit_imports_no_process_pool(pipeline_dir, tmp_path):
    """Two chunks run in plain forks: neither multiprocessing nor concurrent.futures is loaded."""
    argv = ["fit", "--cases", os.path.join(pipeline_dir, "cases.csv"),
            "--metro-map", os.path.join(pipeline_dir, "metro_map.csv"),
            "--periods", os.path.join(pipeline_dir, "periods.csv"), *FIT_FLAGS, "--out", str(tmp_path)]
    code = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from epigrowth.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "fit_report.json").exists()


def test_outputs_do_not_depend_on_the_locale(tmp_path):
    """Under the C locale, UTF-8 mode off, a bundle naming ``métro-01`` runs to the same bytes."""
    bundle = tmp_path / "bundle"
    assert main(["gen-fixtures", "--seed", "2", "--metros", "2", "--out", str(bundle)]) == 0
    for path in bundle.iterdir():
        path.write_bytes(path.read_bytes().replace(b"metro-01", "métro-01".encode("utf-8")))
    cases = ["--cases", str(bundle / "cases.csv"), "--metro-map", str(bundle / "metro_map.csv")]
    periods = ["--periods", str(tmp_path / "{}" / "periods.csv")]
    chain = (
        ["segment", *cases],
        ["fit", *cases, *periods, *FIT_FLAGS],
        ["correlate", *cases, *periods, "--demographics", str(bundle / "demographics.csv"),
         "--weather", str(bundle / "weather.csv")],
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    c_locale = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    outputs = {}
    for tag, locale in (("default", {}), ("c", c_locale)):
        env = dict(os.environ, PYTHONPATH=path, **locale)
        for argv in chain:
            argv = [arg.format(tag) for arg in argv]
            proc = subprocess.run([sys.executable, "-m", "epigrowth", *argv, "--out", str(tmp_path / tag)],
                                  env=env, capture_output=True, timeout=120)
            assert proc.returncode == 0, f"{tag} {argv[0]}: {proc.stderr!r}"
        outputs[tag] = {p.name: p.read_bytes() for p in sorted((tmp_path / tag).iterdir())}
    assert len(outputs["c"]) == 9
    assert b"m\xc3\xa9tro-01" in outputs["c"]["periods.csv"]
    assert outputs["c"] == outputs["default"]


@pytest.mark.parametrize("command, key", [("gen-fixtures", "out"), ("segment", "cases")])
def test_a_path_the_file_system_encoding_cannot_hold_is_one_error_line(pipeline_dir, tmp_path, command, key):
    """Under the C locale, UTF-8 mode off, a config path naming ``rés`` exits 3 with one line naming it."""
    paths = {"out": str(tmp_path / "out"), "cases": os.path.join(pipeline_dir, "cases.csv"),
             "metro-map": os.path.join(pipeline_dir, "metro_map.csv")}
    paths[key] = str(tmp_path / "rés")
    keys = ("out",) if command == "gen-fixtures" else ("out", "cases", "metro-map")
    config = tmp_path / "run.cfg"
    config.write_text("".join(f"{k}={paths[k]}\n" for k in keys), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
               LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    proc = subprocess.run([sys.executable, "-m", "epigrowth", command, "--config", str(config)],
                          env=env, capture_output=True, text=True, errors="replace", timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: "), proc.stderr
    # stderr escapes what its encoding cannot hold: the path is printed as .../r\xe9s
    assert str(tmp_path / "rés").encode("ascii", "backslashreplace").decode() in proc.stderr, proc.stderr
    assert "(ascii)" in proc.stderr, proc.stderr
    assert not (tmp_path / "rés").exists()


@pytest.mark.parametrize("flag", ["--tau1", "--tau2"])
def test_simulate_delay_past_the_window_writes_what_a_window_long_delay_writes(tmp_path, capsys, flag):
    runs = {}
    for tau in ("122", str(10**17)):
        out = tmp_path / tau
        argv = ["simulate", "--model", "delayed", "--beta", "2e-6", "--gamma", "0.1", "--i0", "10"]
        assert main([*argv, flag, tau, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        runs[tau] = [(out / name).read_bytes() for name in ("trajectory.csv", "plotdata.csv")]
    assert runs["122"] == runs[str(10**17)]


@pytest.mark.parametrize("given, missing", [
    (["cases"], "--metro"),
    (["metro_map"], "--metro"),
    (["cases", "metro_map"], "--metro"),
    (["cases", "metro"], "--metro-map"),
    (["metro_map", "metro"], "--cases"),
])
def test_simulate_plot_data_flags_come_together(pipeline_dir, tmp_path, capsys, given, missing):
    flags = {"cases": ["--cases", os.path.join(pipeline_dir, "cases.csv")],
             "metro_map": ["--metro-map", os.path.join(pipeline_dir, "metro_map.csv")],
             "metro": ["--metro", "metro-01"]}
    rc = main(["simulate", "--model", "original", "--beta", "2e-6", "--gamma", "0.1", "--i0", "10",
               *(arg for name in given for arg in flags[name]), "--out", str(tmp_path)])
    assert rc == 4
    assert _one_error_line(capsys) == f"error: {missing} is required"
    assert not (tmp_path / "trajectory.csv").exists()


def test_simulate_takes_metro_alone_with_a_fit_report(pipeline_dir, tmp_path):
    report = os.path.join(pipeline_dir, "fit_report.json")
    rc = main(["simulate", "--model", "reinfect", "--fit-report", report, "--metro", "metro-01",
               "--out", str(tmp_path)])
    assert rc == 0
    assert all(row[2] == "NA" for row in _read_rows(tmp_path / "plotdata.csv")[1:])


# Every input file the CLI reads, by the name gen-fixtures and segment give it.
INPUT_KINDS = ("cases", "metro_map", "periods", "demographics", "weather", "inflow")


def _argv_reading(kind, files, out):
    """A command that reads the ``kind`` file, every other input taken from ``files``."""
    if kind == "inflow":
        return ["simulate", "--model", "tourism", "--beta", "1e-6", "--gamma", "0.1", "--i0", "1",
                "--epsilon", "0.1", "--inflow", files["inflow"], "--out", out]
    cases = ["--cases", files["cases"], "--metro-map", files["metro_map"]]
    if kind in ("cases", "metro_map"):
        return ["segment", *cases, "--out", out]
    return ["correlate", *cases, "--periods", files["periods"],
            "--demographics", files["demographics"], "--weather", files["weather"], "--out", out]


def _run_with_input(pipeline_dir, tmp_path, kind, content):
    """Run the command reading ``kind`` with that file replaced by ``content`` (str or bytes)."""
    files = {k: os.path.join(pipeline_dir, f"{k}.csv") for k in INPUT_KINDS}
    files[kind] = str(tmp_path / f"{kind}.csv")
    data = content.encode("utf-8") if isinstance(content, str) else content
    with open(files[kind], "wb") as fh:
        fh.write(data)
    return main(_argv_reading(kind, files, str(tmp_path / "out")))


CASES_HDR = "date,region,count\n"
MAP_HDR = "county,metro\n"
DEMO_HDR = "metro,group,subcategory,value\n"
WEATHER_HDR = "metro,date,type,high,low\n"
PERIODS_HDR = "metro,period_index,start,end,slope,intercept,r2\n"
INFLOW_HDR = "day,o\n"
GOOD_PERIODS = "".join(
    f"metro-01,{k},{start},{end},0.1,1.0,0.9\n"
    for k, (start, end) in enumerate(
        [("2020-03-01", "2020-03-20"), ("2020-03-21", "2020-04-10"), ("2020-04-11", "2020-05-01"),
         ("2020-05-02", "2020-05-31"), ("2020-06-01", "2020-06-30")],
        start=1,
    )
)

# (file, content, exit code, the one stderr line): every error path of the six loaders.
LOADER_ERRORS = [
    ("cases", "", 2, "cases CSV must start with header 'date,region,count'"),
    ("cases", "date,county,count\n", 2, "cases CSV must start with header 'date,region,count'"),
    ("cases", CASES_HDR + "2020-03-01,a\n", 2, "cases CSV line 2: expected 3 fields, got 2"),
    ("cases", CASES_HDR + "\n \n", 2, "cases CSV line 3: expected 3 fields, got 1"),
    ("cases", CASES_HDR + "2020-02-30,a,1\n", 2, "cases CSV line 2: bad date '2020-02-30'"),
    ("cases", CASES_HDR + "20200301,a,1\n", 2, "cases CSV line 2: bad date '20200301'"),
    ("cases", CASES_HDR + "2020-W10-1,a,1\n", 2, "cases CSV line 2: bad date '2020-W10-1'"),
    ("cases", CASES_HDR + "2020-03-01,a, 1.5 \n", 2, "cases CSV line 2: bad count '1.5'"),
    ("cases", CASES_HDR + "2020-03-01,a,-1\n", 2, "cases CSV line 2: negative count for a on 2020-03-01"),
    ("cases", CASES_HDR + "2020-03-01, ,1\n", 2, "cases CSV line 2: empty region"),
    ("cases", CASES_HDR + "2020-03-01,a,1\n\n2020-03-01,a,2\n", 2,
     "cases CSV line 4: duplicate entry for (2020-03-01, a)"),
    ("cases", CASES_HDR + '2020-03-01,"a\nb",x\n', 2, "cases CSV line 3: bad count 'x'"),
    ("cases", CASES_HDR + "2020-03-01,nowhere,1\n", 2, "counties missing from metro map: nowhere"),
    ("cases", CASES_HDR + "2020-03-01,a," + "9" * 5000 + "\n", 2,
     f"cases CSV line 2: bad count '{'9' * 5000}'"),
    ("metro_map", "county\n", 2, "metro-map CSV must start with header 'county,metro'"),
    ("metro_map", MAP_HDR + "a,b,c\n", 2, "metro-map CSV line 2: expected 2 fields, got 3"),
    ("metro_map", MAP_HDR + "a, \n", 2, "metro-map CSV line 2: empty county or metro"),
    ("metro_map", MAP_HDR + "a,m\na,n\n", 2, "metro-map CSV line 3: county 'a' mapped twice"),
    ("demographics", "metro,group\n", 2,
     "demographics CSV must start with header 'metro,group,subcategory,value'"),
    ("demographics", DEMO_HDR + "m,g,s\n", 2, "demographics CSV line 2: expected 4 fields, got 3"),
    ("demographics", DEMO_HDR + "m,,s,1\n", 2, "demographics CSV line 2: empty key field"),
    ("demographics", DEMO_HDR + "m,g,s,x\n", 2, "demographics CSV line 2: bad value 'x'"),
    ("demographics", DEMO_HDR + "m,g,s, 101 \n", 2, "demographics CSV line 2: value 101 outside [0, 100]"),
    ("demographics", DEMO_HDR + "m,g,s,nan\n", 2, "demographics CSV line 2: value nan outside [0, 100]"),
    ("demographics", DEMO_HDR + "m,g,s,1\nm,g,s,2\n", 2, "demographics CSV line 3: duplicate entry for m/g/s"),
    ("weather", "metro,date,type,high\n", 2,
     "weather CSV must start with header 'metro,date,type,high,low'"),
    ("weather", WEATHER_HDR + "m,2020-03-01,sunny,50\n", 2, "weather CSV line 2: expected 5 fields, got 4"),
    ("weather", WEATHER_HDR + "m,2020-13-01,sunny,50,40\n", 2, "weather CSV line 2: bad date '2020-13-01'"),
    ("weather", WEATHER_HDR + "m,20200301,sunny,50,40\n", 2, "weather CSV line 2: bad date '20200301'"),
    ("weather", WEATHER_HDR + "m,2020-W10-1,sunny,50,40\n", 2, "weather CSV line 2: bad date '2020-W10-1'"),
    ("weather", WEATHER_HDR + "m,2020-03-01,sunny,warm,40\n", 2, "weather CSV line 2: bad temperature"),
    ("weather", WEATHER_HDR + "m,2020-03-01,hail,50,40\n", 2,
     "weather CSV line 2: unknown weather type 'hail'"),
    ("weather", WEATHER_HDR + "m,2020-03-01,sunny,inf,40\n", 2,
     "weather CSV line 2: temperatures must be finite"),
    ("weather", WEATHER_HDR + "m,2020-03-01,sunny,40,50\n", 2,
     "weather CSV line 2: m 2020-03-01: high below low"),
    ("weather", WEATHER_HDR + "m,2020-03-01,sunny,50,40\nm,2020-03-01,rainy,50,40\nm,x,sunny,1,0\n", 2,
     "weather CSV line 4: bad date 'x'"),
    ("weather", WEATHER_HDR + "m,2020-03-01,sunny,50,40\nm,2020-03-01,rainy,50,40\n", 2,
     "duplicate weather row for m on 2020-03-01"),
    ("periods", "metro,period_index,start,end\n", 2,
     "periods CSV must start with header 'metro,period_index,start,end,slope,intercept,r2'"),
    ("periods", PERIODS_HDR + "metro-01,1,2020-03-01\n", 2, "periods CSV line 2: expected 7 fields, got 3"),
    ("periods", PERIODS_HDR + "metro-01,one,2020-03-01,2020-03-20,0.1,1.0,0.9\n", 2,
     "periods CSV line 2: malformed row"),
    ("periods", PERIODS_HDR + GOOD_PERIODS.replace("2020-03-01", "20200301"), 2,
     "periods CSV line 2: malformed row"),
    ("periods", PERIODS_HDR + GOOD_PERIODS.replace("2020-03-01", "2020-W10-1"), 2,
     "periods CSV line 2: malformed row"),
    ("periods", PERIODS_HDR + "metro-01,1,2020-03-01,2020-03-20,0.1,1.0,0.9\n", 2,
     "periods CSV: metro-01: expected 5 periods, got 1"),
    ("periods", PERIODS_HDR + "metro-01,1,2020-03-01,2020-03-20,0.1,1.0,0.9\n"
     "metro-02,1,2020-03-01,2020-03-20,0.1,x,0.9\n", 2, "periods CSV line 3: malformed row"),
    ("periods", PERIODS_HDR + GOOD_PERIODS.replace("2020-04-11", "2020-04-12"), 2,
     "periods CSV: metro-01: period 3 starts 2020-04-12, expected the day after 2020-04-10"),
    ("periods", PERIODS_HDR + GOOD_PERIODS + "metro-01,6,2020-07-01,2020-07-02,0.1,1.0,0.9\n", 2,
     "periods CSV line 7: metro-01: period index must be 1..5, got 6"),
    ("periods", PERIODS_HDR + "metro-01,6,2020-07-01,2020-07-02,0.1,1.0,0.9\n" + GOOD_PERIODS.replace(",1,", ",x,"), 2,
     "periods CSV line 2: metro-01: period index must be 1..5, got 6"),
    ("periods", PERIODS_HDR + GOOD_PERIODS.replace("01,2020-03-20", "01,2020-02-01"), 2,
     "periods CSV line 2: metro-01: period 1: end 2020-02-01 precedes start 2020-03-01"),
    ("inflow", "day\n", 2, "inflow CSV must start with header 'day,o'"),
    ("inflow", INFLOW_HDR + "0,1,2\n", 2, "inflow CSV line 2: expected 2 fields, got 3"),
    ("inflow", INFLOW_HDR + "0,x\n", 2, "inflow CSV line 2: malformed row"),
    ("inflow", INFLOW_HDR + "0,1\n2,1\n", 2, "inflow CSV line 3: days must run 0,1,2,... got 2"),
    ("inflow", INFLOW_HDR + "0,-1\n", 2, "inflow CSV line 2: inflow values must be finite and >= 0, got -1.0"),
    ("inflow", INFLOW_HDR + "0,-1\n1,x\n", 2, "inflow CSV line 2: inflow values must be finite and >= 0, got -1.0"),
    ("inflow", INFLOW_HDR + "0,1\n1,nan\n", 2, "inflow CSV line 3: inflow values must be finite and >= 0, got nan"),
]


@pytest.mark.parametrize("kind, content, rc, message", LOADER_ERRORS)
def test_loader_error_text_and_exit_code(pipeline_dir, tmp_path, capsys, kind, content, rc, message):
    assert _run_with_input(pipeline_dir, tmp_path, kind, content) == rc
    assert _one_error_line(capsys) == f"error: {message}"


@pytest.mark.parametrize("kind", INPUT_KINDS)
def test_non_utf8_input_names_the_file_and_byte(pipeline_dir, tmp_path, capsys, kind):
    assert _run_with_input(pipeline_dir, tmp_path, kind, b"\xff") == 2
    path = tmp_path / f"{kind}.csv"
    assert _one_error_line(capsys) == f"error: {path}: not UTF-8 text (byte 0)"


def test_oversized_csv_field_exits_2_naming_the_line(pipeline_dir, tmp_path, capsys):
    content = CASES_HDR + "2020-03-01," + "a" * 140_000 + ",1\n"
    assert _run_with_input(pipeline_dir, tmp_path, "cases", content) == 2
    assert _one_error_line(capsys) == (
        "error: cases CSV line 2: field larger than field limit (131072)"
    )


def test_count_too_large_for_a_float_is_a_bad_count(pipeline_dir, tmp_path, capsys):
    nines = "9" * 400
    assert _run_with_input(pipeline_dir, tmp_path, "cases", f"{CASES_HDR}2020-03-01,a,{nines}\n") == 2
    assert _one_error_line(capsys) == f"error: cases CSV line 2: bad count '{nines}'"


MUTATIONS = ("truncate", "insert-bytes", "swap-fields", "duplicate-row", "huge-field", "huge-number")


def _mutate(data, text: str, mutation: str) -> bytes:
    """One drawn edit of a well-formed input file; fields are comma-split (fixtures quote none)."""
    raw = text.encode("utf-8")
    if mutation == "truncate":
        return raw[: data.draw(st.integers(0, len(raw)), label="cut")]
    if mutation == "insert-bytes":
        at = data.draw(st.integers(0, len(raw)), label="at")
        return raw[:at] + data.draw(st.binary(min_size=1, max_size=6), label="bytes") + raw[at:]
    rows = [line.split(",") for line in text.splitlines()]
    k = data.draw(st.integers(0, len(rows) - 1), label="row")
    row = rows[k]
    if mutation == "duplicate-row":
        rows.insert(data.draw(st.integers(0, len(rows)), label="to"), list(row))
    elif mutation == "swap-fields":
        i, j = (data.draw(st.integers(0, len(row) - 1), label=f"field {n}") for n in (1, 2))
        row[i], row[j] = row[j], row[i]
    elif mutation == "huge-field":
        row[data.draw(st.integers(0, len(row) - 1), label="field")] = "a" * 140_000
    else:  # huge-number: a number that int() takes but a float cannot hold
        numeric = [i for i, field in enumerate(row) if field.lstrip("-").replace(".", "", 1).isdigit()]
        if numeric:
            row[data.draw(st.sampled_from(numeric), label="field")] = "9" * 400
    return "".join(",".join(r) + "\n" for r in rows).encode("utf-8")


@pytest.mark.parametrize("kind", INPUT_KINDS)
@settings(max_examples=15, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=st.sampled_from(MUTATIONS), data=st.data())
def test_mutated_input_file_exits_cleanly(pipeline_dir, tmp_path, monkeypatch, capsys, kind, mutation, data):
    """Whatever is done to an input file, the command reading it ends with an exit code and, on
    failure, exactly one ``error:`` line; main() raising would be a traceback at the shell."""
    _use_cores(monkeypatch, 1)
    with open(os.path.join(pipeline_dir, f"{kind}.csv"), encoding="utf-8") as fh:
        content = _mutate(data, fh.read(), mutation)
    capsys.readouterr()
    rc = _run_with_input(pipeline_dir, tmp_path, kind, content)
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert rc in (0, 2, 3, 4)
    assert len(errors) == (0 if rc == 0 else 1), errors


REPORT_MUTATIONS = ("truncate", "insert-bytes", "drop-key", "swap-values", "huge-number")


def _json_nodes(node, at=()):
    """(path, value) of every value inside a parsed JSON document, containers too, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield (*at, key), value
        yield from _json_nodes(value, (*at, key))


def _mutate_report(data, text: str, mutation: str) -> bytes:
    """One drawn edit of a fit report: bytes cut or inserted, or on the parsed document a key
    dropped, two values swapped or a number replaced with 400 nines."""
    raw = text.encode("utf-8")
    if mutation == "truncate":
        return raw[: data.draw(st.integers(0, len(raw)), label="cut")]
    if mutation == "insert-bytes":
        at = data.draw(st.integers(0, len(raw)), label="at")
        return raw[:at] + data.draw(st.binary(min_size=1, max_size=6), label="bytes") + raw[at:]
    report = json.loads(text)
    nodes = dict(_json_nodes(report))

    def parent(path):
        node = report
        for key in path[:-1]:
            node = node[key]
        return node

    if mutation == "drop-key":
        path = data.draw(st.sampled_from([p for p in nodes if isinstance(p[-1], str)]), label="key")
        del parent(path)[path[-1]]
    elif mutation == "swap-values":
        p = data.draw(st.sampled_from(list(nodes)), label="first")
        apart = [q for q in nodes if q[:len(p)] != p and p[:len(q)] != q]  # neither holds the other
        q = data.draw(st.sampled_from(apart), label="second")
        parent(p)[p[-1]], parent(q)[q[-1]] = nodes[q], nodes[p]
    else:  # huge-number
        numbers = [p for p, v in nodes.items() if isinstance(v, (int, float)) and not isinstance(v, bool)]
        path = data.draw(st.sampled_from(numbers), label="number")
        parent(path)[path[-1]] = HUGE
    return json.dumps(report).encode("utf-8")


class _Scripted:
    """Stands in for ``st.data()`` in an ``@example``: each draw returns the next scripted value."""

    def __init__(self, *values):
        self.values = iter(values)

    def draw(self, strategy, label=None):
        return next(self.values)


FITTED = ("metros", "metro-01", "reinfect")


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=st.sampled_from(REPORT_MUTATIONS), data=st.data())
@example(mutation="insert-bytes", data=_Scripted(0, b"[" * 100_000))  # nested past the recursion limit
@example(mutation="huge-number", data=_Scripted((*FITTED, "beta", 0)))
@example(mutation="huge-number", data=_Scripted((*FITTED, "mu")))
@example(mutation="huge-number", data=_Scripted((*FITTED, "init", "s")))
def test_mutated_fit_report_exits_cleanly(pipeline_dir, tmp_path, capsys, mutation, data):
    """Whatever is done to the fit report, ``simulate --fit-report`` ends with an exit code and, on
    failure, exactly one ``error:`` line."""
    with open(os.path.join(pipeline_dir, "fit_report.json"), encoding="utf-8") as fh:
        content = _mutate_report(data, fh.read(), mutation)
    path = tmp_path / "fit_report.json"
    path.write_bytes(content)
    capsys.readouterr()
    rc = main(["simulate", "--model", "reinfect", "--fit-report", str(path), "--metro", "metro-01",
               "--out", str(tmp_path / "out")])
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert rc in (0, 2, 3, 4)
    assert len(errors) == (0 if rc == 0 else 1), errors
