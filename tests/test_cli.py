import csv
import json
import os
from datetime import date

import pytest

from epigrowth.cli import PROTOCOL_HEADER, TABLE2_HEADER, main


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


def test_simulate_non_finite_state_exits_2_naming_day_and_period(tmp_path, capsys):
    # beta*I*S overflows on day 1; the old clamp turned day 2's NaN into I = 0
    rc = main(
        [
            "simulate",
            "--model", "original",
            "--beta", "1e300",
            "--gamma", "0.1",
            "--i0", "1",
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
         2, "beta must be finite and >= 0, got -1e-06"),
        (["simulate", "--model", "delayed", "--beta", "1e-6", "--i0", "1", "--gamma", "-1E+2"],
         2, "gamma must be finite and >= 0, got -100.0"),
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
