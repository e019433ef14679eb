"""The CLI option table: value checks, ``--config`` keys, fuzzing of config and pooled input."""

import faulthandler
import multiprocessing
import os
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from epigrowth.cli import main
from test_cli import MUTATIONS, _mutate, _use_cores


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    """gen-fixtures -> segment on three metros: inputs for fit and segment."""
    out = str(tmp_path_factory.mktemp("bundle"))
    assert main(["gen-fixtures", "--seed", "2", "--metros", "3", "--out", out]) == 0
    assert main(["segment", *_cases(out), "--out", out]) == 0
    return out


def _cases(d):
    return ["--cases", os.path.join(d, "cases.csv"),
            "--metro-map", os.path.join(d, "metro_map.csv")]


def _error_lines(capsys) -> list[str]:
    return [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]


SIMULATE = ["simulate", "--model", "original", "--beta", "1e-6", "--gamma", "0.1", "--i0", "5"]
AFTER = "must fall strictly after"
ORDER = "(anchors ascending, inside the window)"


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["gen-fixtures", "--seed", "-1"], None, "--seed must be >= 0, got -1"),
        (["gen-fixtures"], "seed=-1\n", "--seed must be >= 0, got -1"),
        ([*SIMULATE, "--i0", "-5"], None, "--i0 must be >= 0, got -5.0"),
        ([*SIMULATE, "--s0", "-1"], None, "--s0 must be >= 0, got -1.0"),
        ([*SIMULATE, "--r0", "-2.5"], None, "--r0 must be >= 0, got -2.5"),
        (SIMULATE, "r0=-1e-3\n", "--r0 must be >= 0, got -0.001"),
        (["fit", "--cases", "c.csv"], "shared_beta=maybe\n",
         "--shared-beta: expected a boolean, got 'maybe'"),
        (["fit", "--cases", "c.csv"], "shared-beta=\n",
         "--shared-beta: expected a boolean, got ''"),
        (["segment", "--anchors", ""], None, "--anchors: expected 4 dates, got 0"),
        (["segment"], "anchors=\n", "--anchors: expected 4 dates, got 0"),
        ([*SIMULATE, "--anchors", "2020-04-01,2020-04-20,2020-05-10"], None,
         "--anchors: expected 4 dates, got 3"),
        (SIMULATE, "anchors=2020-04-01\n", "--anchors: expected 4 dates, got 1"),
        (["gen-fixtures", "--anchors", "2020-04-01,2020-04-20,2020-05-10,2020-06-01,2020-06-10"],
         None, "--anchors: expected 4 dates, got 5"),
        (["gen-fixtures"], "anchors=\n", "--anchors: expected 4 dates, got 0"),
        (["gen-fixtures", "--anchors", "2020-04-20,2020-04-01,2020-05-10,2020-06-01"], None,
         f"--anchors: anchor 2020-04-01 {AFTER} 2020-04-20 {ORDER}"),
        (["gen-fixtures"], "anchors=2020-04-01,2020-04-20,2020-05-10,2020-08-01\n",
         "--anchors: anchor 2020-08-01 falls outside window ending 2020-06-30"),
        (["gen-fixtures", "--window", "2020-03-01:2020-04-15"], None,
         "--anchors: anchor 2020-06-01 falls outside window ending 2020-04-15"),
        (["segment", "--anchors", "2020-04-01,2020-04-20,2020-05-10,2020-08-01"], None,
         "--anchors: anchor 2020-08-01 falls outside window ending 2020-06-30"),
        (["segment"], "anchors=2020-02-20,2020-04-20,2020-05-10,2020-06-01\n",
         f"--anchors: anchor 2020-02-20 {AFTER} 2020-03-01 {ORDER}"),
        (["segment", "--window", "2020-03-01:2020-04-15"], None,
         "--anchors: anchor 2020-06-01 falls outside window ending 2020-04-15"),
        ([*SIMULATE, "--anchors", "2020-04-01,2020-04-20,2020-05-10,2020-08-01"], None,
         "--anchors: anchor 2020-08-01 falls outside window ending 2020-06-30"),
        (SIMULATE, "anchors=2020-04-01,2020-04-20,2020-04-20,2020-06-01\n",
         f"--anchors: anchor 2020-04-20 {AFTER} 2020-04-20 {ORDER}"),
        (SIMULATE, "window=2020-04-01:2020-06-30\n",
         f"--anchors: anchor 2020-04-01 {AFTER} 2020-04-01 {ORDER}"),
        (["segment", "--announcement", "20200329"], None,
         "--announcement: expected YYYY-MM-DD, got '20200329'"),
        (["gen-fixtures"], "window=2020-W10-1:2020-06-30\n",
         "--window: expected YYYY-MM-DD, got '2020-W10-1'"),
        (["gen-fixtures", "--metros", "0"], None, "--metros must be >= 1, got 0"),
        (["gen-fixtures"], "metros=-3\n", "--metros must be >= 1, got -3"),
        (["fit", "--grid-points", "0"], None, "--grid-points must be >= 1, got 0"),
        (["fit"], "grid-points=-2\n", "--grid-points must be >= 1, got -2"),
        (["fit", "--refinements", "-1"], None, "--refinements must be >= 0, got -1"),
        (["segment", "--radius", "-1"], None, "--radius must be >= 0, got -1"),
        (["segment", "--min-period", "0"], None, "--min-period must be >= 1, got 0"),
        (["segment"], "min_period=-1\n", "--min-period must be >= 1, got -1"),
    ],
)
def test_bad_option_value_exits_4_naming_the_flag(tmp_path, capsys, argv, config, message):
    extra = []
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        extra = ["--config", str(tmp_path / "run.cfg")]
    assert main([*argv, *extra, "--out", str(tmp_path)]) == 4
    assert _error_lines(capsys) == [f"error: {message}"]
    assert os.listdir(tmp_path) == (["run.cfg"] if config is not None else [])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fit", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["fit", "--grid-points"], "argument --grid-points: expected one argument"),
        ([], "the following arguments are required: command"),
    ],
)
def test_usage_error_exits_4_with_one_error_line(capsys, argv, message):
    assert main(argv) == 4
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["fit", "--help"])
    assert info.value.code == 0
    assert "--grid-points" in capsys.readouterr().out


@pytest.mark.parametrize("key", ["__class__", "__dict__", "config", "command", "func", "options",
                                 "metro_map", "beta"])
def test_config_key_that_is_not_an_option_of_the_command_exits_4(tmp_path, capsys, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed=1\n{key}=1\n")
    assert main(["gen-fixtures", "--config", str(cfg), "--out", str(tmp_path)]) == 4
    assert _error_lines(capsys) == [f"error: {cfg}: unknown key {key!r}"]


@pytest.mark.parametrize("argv, line", [(["segment"], "cases=a\0b"), (["gen-fixtures"], "out=\0")])
def test_config_with_a_nul_character_exits_4(tmp_path, capsys, argv, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# comment\n{line}\n")
    assert main([*argv, "--config", str(cfg)]) == 4
    assert _error_lines(capsys) == [f"error: {cfg}:2: NUL character"]


def test_config_keys_are_flag_names_with_dash_or_underscore(bundle_dir, tmp_path):
    """A run configured by file writes the same bytes as the same run configured by flags."""
    flags = [*_cases(bundle_dir), "--min-period", "5", "--radius", "3"]
    assert main(["segment", *flags, "--out", str(tmp_path / "flags")]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# a comment\n\ncases={bundle_dir}/cases.csv\nmetro-map={bundle_dir}/metro_map.csv\n"
                   f"min_period = 5\nradius=3\nout={tmp_path}/config\n")
    assert main(["segment", "--config", str(cfg)]) == 0
    for name in ("periods.csv", "protocol.csv"):
        assert (tmp_path / "config" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()


# A valid config per command, and the flags that pin what could make a mutated run large
# (explicit flags win over config values).
def _fuzz_cases(bundle):
    return {
        "gen-fixtures": (
            "seed=3\nmetros=2\nwindow=2020-03-01:2020-06-30\nannouncement=2020-03-29\n"
            "anchors=2020-04-01,2020-04-20,2020-05-10,2020-06-01\n",
            ["--metros", "1"],
        ),
        "simulate": (
            "model=tourism\nbeta=2e-6\ngamma=0.1\ntau1=5\ntau2=14\nmu=0.2\nepsilon=0.05\n"
            f"i0=5\ns0=5e5\nr0=0\ninflow={bundle}/inflow.csv\nmetro=metro-01\n"
            f"cases={bundle}/cases.csv\nmetro-map={bundle}/metro_map.csv\n",
            ["--window", "2020-03-01:2020-06-30"],
        ),
        "fit": (
            f"cases={bundle}/cases.csv\nmetro_map={bundle}/metro_map.csv\n"
            f"periods={bundle}/periods.csv\ntau1=5\ntau2=14\nmu=0.2\nshared-beta=yes\n",
            ["--grid-points", "5", "--refinements", "0"],
        ),
    }


CONFIG_MUTATIONS = ("truncate", "insert-bytes", "duplicate-key", "unknown-key", "empty-value",
                    "swap-values")


def _mutate_config(data, text: str, mutation: str) -> bytes:
    """One drawn edit of a well-formed ``key=value`` config file."""
    raw = text.encode("utf-8")
    if mutation == "truncate":
        return raw[: data.draw(st.integers(0, len(raw)), label="cut")]
    if mutation == "insert-bytes":
        at = data.draw(st.integers(0, len(raw)), label="at")
        return raw[:at] + data.draw(st.binary(min_size=1, max_size=6), label="bytes") + raw[at:]
    pairs = [line.split("=", 1) for line in text.splitlines()]
    k = data.draw(st.integers(0, len(pairs) - 1), label="line")
    if mutation == "duplicate-key":
        value = data.draw(st.sampled_from([v for _, v in pairs]), label="value")
        pairs.insert(data.draw(st.integers(0, len(pairs)), label="to"), [pairs[k][0], value])
    elif mutation == "unknown-key":
        key = data.draw(st.sampled_from(["__class__", "__dict__", "config", "func", "wibble"]))
        pairs.insert(k, [key, "1"])
    elif mutation == "empty-value":
        pairs[k][1] = ""
    else:  # swap-values
        j = data.draw(st.integers(0, len(pairs) - 1), label="other line")
        pairs[k][1], pairs[j][1] = pairs[j][1], pairs[k][1]
    return "".join(f"{key}={value}\n" for key, value in pairs).encode("utf-8")


@pytest.mark.parametrize("command", ["gen-fixtures", "simulate", "fit"])
@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=st.sampled_from(CONFIG_MUTATIONS), data=st.data())
def test_mutated_config_exits_cleanly(bundle_dir, tmp_path, monkeypatch, capsys, command, mutation,
                                      data):
    """Whatever is done to a --config file, the command ends with an exit code and, on failure,
    exactly one ``error:`` line; main() raising would be a traceback at the shell."""
    _use_cores(monkeypatch, 1)
    text, flags = _fuzz_cases(bundle_dir)[command]
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(_mutate_config(data, text, mutation))
    capsys.readouterr()
    rc = main([command, "--config", str(cfg), *flags, "--out", str(tmp_path / "out")])
    errors = _error_lines(capsys)
    assert rc in (0, 2, 3, 4)
    assert len(errors) == (0 if rc == 0 else 1), errors


@pytest.mark.parametrize("kind", ["cases", "periods"])
@settings(max_examples=10, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=st.sampled_from(MUTATIONS), data=st.data())
def test_mutated_input_file_exits_cleanly_in_forked_workers(bundle_dir, tmp_path, monkeypatch,
                                                            capsys, kind, mutation, data):
    """The input-file fuzz on two cores: segment (cases) runs in process, fit (periods) forks workers."""
    _use_cores(monkeypatch, 2)
    files = {k: os.path.join(bundle_dir, f"{k}.csv") for k in ("cases", "metro_map", "periods")}
    with open(files[kind], encoding="utf-8") as fh:
        content = _mutate(data, fh.read(), mutation)
    files[kind] = str(tmp_path / f"{kind}.csv")
    with open(files[kind], "wb") as fh:
        fh.write(content)
    inputs = ["--cases", files["cases"], "--metro-map", files["metro_map"]]
    if kind == "cases":
        argv = ["segment", *inputs]
    else:
        argv = ["fit", *inputs, "--periods", files["periods"],
                "--grid-points", "5", "--refinements", "0"]
    capsys.readouterr()
    # a hung pool fails the run, not CI time; capsys holds sys.stderr, which has no file descriptor
    faulthandler.dump_traceback_later(120, exit=True, file=sys.__stderr__)
    try:
        rc = main([*argv, "--out", str(tmp_path / "out")])
    finally:
        faulthandler.cancel_dump_traceback_later()
    errors = _error_lines(capsys)
    assert rc in (0, 2, 3, 4)
    assert len(errors) == (0 if rc == 0 else 1), errors
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):  # no child is left, plain forks and zombies included
        os.waitpid(-1, os.WNOHANG)
