"""Command line pipeline: gen-fixtures, segment, fit, simulate, correlate.

Every subcommand takes ``--config FILE`` with one ``key=value`` per line
(``#`` comments allowed); explicit flags win over config values.  Exit codes:
0 success, 2 bad or insufficient input data, 3 I/O failure, 4 bad
configuration or usage.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from datetime import date, timedelta

from .correlate import (
    WEATHER_MODES,
    demographic_study,
    load_demographics,
    load_weather,
    report_to_dict,
    weather_study,
    weighted_avg_growth,
    write_demographics_csv,
    write_group_report_csv,
    write_weather_csv,
    write_weather_report_csv,
)
from .errors import ConfigError, InsufficientDataError, ParseError, PipelineError
from .fit import DEFAULT_S0_SCALE, SearchConfig, data_growth_rates, tune
from .fixtures import make_bundle
from .segment import (
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
    period_sets_from_rows,
    protocol_followed_date,
    rows_from_period_sets,
    write_periods_csv,
)
from .sir import (
    DEFAULT_TAU1,
    DEFAULT_TAU2,
    VARIANTS,
    PiecewiseParams,
    SirState,
    load_inflow,
    simulate,
    write_inflow_csv,
    write_trajectory_csv,
)
from .timeseries import (
    DateInterval,
    aggregate_to_metros,
    load_cases,
    load_metro_map,
    write_cases_csv,
    write_metro_map_csv,
)

TABLE2_HEADER = ("metro", "only_delayed_pct", "reinfected_pct")
PROTOCOL_HEADER = ("metro", "first_case", "protocol_date", "note")
PLOTDATA_HEADER = ("day", "log_i_sim", "log_i_data")
FIT_MODELS = ("delayed", "reinfect")


def _require(value, flag: str):
    if value is None:
        raise ConfigError(f"{flag} is required")
    return value


def _to_int(value, flag: str) -> int:
    try:
        return int(str(value))
    except ValueError:
        raise ConfigError(f"{flag}: expected an integer, got {value!r}") from None


def _to_float(value, flag: str) -> float:
    try:
        out = float(str(value))
    except ValueError:
        raise ConfigError(f"{flag}: expected a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"{flag}: expected a finite number, got {value!r}")
    return out


def _to_date(value, flag: str) -> date:
    try:
        return date.fromisoformat(str(value))
    except ValueError:
        raise ConfigError(f"{flag}: expected YYYY-MM-DD, got {value!r}") from None


def _to_window(value, flag: str = "--window") -> DateInterval:
    parts = str(value).split(":")
    if len(parts) != 2:
        raise ConfigError(f"{flag}: expected START:END, got {value!r}")
    start = _to_date(parts[0], flag)
    end = _to_date(parts[1], flag)
    if end < start:
        raise ConfigError(f"{flag}: end {end} precedes start {start}")
    return DateInterval(start, end)


def _to_anchors(value, flag: str = "--anchors") -> tuple[date, ...]:
    parts = [p for p in str(value).split(",") if p.strip()]
    return tuple(_to_date(p.strip(), flag) for p in parts)


def _as_bool(value: str, key: str) -> bool:
    low = value.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def _apply_config(args: argparse.Namespace) -> None:
    """Fill still-unset argparse values from the key=value config file."""
    path = getattr(args, "config", None)
    if path is None:
        return
    pairs: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from None
        for line_num, raw in enumerate(lines, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_num}: expected key=value")
            key, _, value = line.partition("=")
            pairs[key.strip().replace("-", "_")] = value.strip()
    for key, value in pairs.items():
        if key in ("config", "command", "func") or not hasattr(args, key):
            raise ConfigError(f"{path}: unknown key {key!r}")
        current = getattr(args, key)
        if isinstance(current, bool):
            if not current:
                setattr(args, key, _as_bool(value, key))
        elif current is None:
            setattr(args, key, value)


def _out_dir(args: argparse.Namespace) -> str:
    out = args.out if args.out is not None else "."
    os.makedirs(out, exist_ok=True)
    return out


def _load_case_metros(args: argparse.Namespace):
    with open(_require(args.cases, "--cases"), newline="") as fh:
        series, warnings = load_cases(fh)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    with open(_require(args.metro_map, "--metro-map"), newline="") as fh:
        metro_map = load_metro_map(fh)
    return aggregate_to_metros(series, metro_map)


def _load_period_sets(args: argparse.Namespace) -> dict[str, PeriodSet]:
    with open(_require(args.periods, "--periods"), newline="") as fh:
        return period_sets_from_rows(load_periods_csv(fh))


def _na(value: float | None) -> str:
    return "NA" if value is None else repr(value)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2))
        fh.write("\n")


def cmd_gen_fixtures(args: argparse.Namespace) -> int:
    seed = _to_int(args.seed, "--seed") if args.seed is not None else 0
    n_metros = _to_int(args.metros, "--metros") if args.metros is not None else 8
    window = _to_window(args.window) if args.window is not None else DEFAULT_WINDOW
    announcement = (
        _to_date(args.announcement, "--announcement")
        if args.announcement is not None
        else DEFAULT_ANNOUNCEMENT
    )
    anchors = _to_anchors(args.anchors) if args.anchors is not None else None
    bundle = make_bundle(seed, n_metros, window, announcement, anchors)
    out = _out_dir(args)
    with open(os.path.join(out, "cases.csv"), "w", newline="") as fh:
        write_cases_csv(bundle.cases, fh)
    with open(os.path.join(out, "metro_map.csv"), "w", newline="") as fh:
        write_metro_map_csv(bundle.metro_map, fh)
    with open(os.path.join(out, "demographics.csv"), "w", newline="") as fh:
        write_demographics_csv(bundle.demographics, fh)
    with open(os.path.join(out, "weather.csv"), "w", newline="") as fh:
        write_weather_csv(bundle.weather, fh)
    with open(os.path.join(out, "inflow.csv"), "w", newline="") as fh:
        write_inflow_csv(bundle.inflow, fh)
    _write_json(os.path.join(out, "fixture_params.json"), bundle.manifest())
    print(f"gen-fixtures: wrote {n_metros} metro(s) to {out}")
    return 0


def cmd_segment(args: argparse.Namespace) -> int:
    window = _to_window(args.window) if args.window is not None else DEFAULT_WINDOW
    announcement = (
        _to_date(args.announcement, "--announcement")
        if args.announcement is not None
        else DEFAULT_ANNOUNCEMENT
    )
    anchors = (
        _to_anchors(args.anchors) if args.anchors is not None else default_anchors(announcement)
    )
    radius = (
        _to_int(args.radius, "--radius") if args.radius is not None else DEFAULT_SEARCH_RADIUS
    )
    min_period = (
        _to_int(args.min_period, "--min-period")
        if args.min_period is not None
        else DEFAULT_MIN_PERIOD
    )
    metros = _load_case_metros(args)
    period_sets = []
    protocol_rows: list[tuple[str, date | None, date | None, str]] = []
    skipped = 0
    for series in metros:
        first_case = next(
            (
                series.start_date + timedelta(days=idx)
                for idx, c in enumerate(series.counts)
                if c > 0
            ),
            None,
        )
        initial = initial_periods(window, anchors, series.region)
        try:
            ps = optimize_boundaries(
                series, initial, search_radius=radius, min_period_length=min_period
            )
        except InsufficientDataError as exc:
            print(f"warning: {series.region}: {exc}; skipped", file=sys.stderr)
            protocol_rows.append((series.region, first_case, None, "no fittable periods"))
            skipped += 1
            continue
        period_sets.append(ps)
        call = protocol_followed_date(ps, announcement)
        protocol_rows.append((series.region, first_case, call.date, call.note))
    out = _out_dir(args)
    with open(os.path.join(out, "periods.csv"), "w", newline="") as fh:
        write_periods_csv(rows_from_period_sets(period_sets), fh)
    protocol_rows.sort(key=lambda r: (r[2] is None, r[2] or date.min, r[0]))
    with open(os.path.join(out, "protocol.csv"), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PROTOCOL_HEADER)
        for metro, first, when, note in protocol_rows:
            writer.writerow(
                [
                    metro,
                    first.isoformat() if first is not None else "NA",
                    when.isoformat() if when is not None else "NA",
                    note,
                ]
            )
    tail = f", skipped {skipped}" if skipped else ""
    print(f"segment: wrote periods for {len(period_sets)} metro(s) to {out}{tail}")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    tau1 = _to_int(args.tau1, "--tau1") if args.tau1 is not None else DEFAULT_TAU1
    tau2 = _to_int(args.tau2, "--tau2") if args.tau2 is not None else DEFAULT_TAU2
    mu = _to_float(args.mu, "--mu") if args.mu is not None else 0.0
    for flag, value in (("--tau1", tau1), ("--tau2", tau2), ("--mu", mu)):
        if value < 0:
            raise ConfigError(f"{flag} must be >= 0, got {value!r}")
    grid_points = (
        _to_int(args.grid_points, "--grid-points") if args.grid_points is not None else 101
    )
    refinements = (
        _to_int(args.refinements, "--refinements") if args.refinements is not None else 3
    )
    cfg = SearchConfig(
        beta_points=grid_points, gamma_points=grid_points, refinement_levels=refinements
    )
    metros = _load_case_metros(args)
    period_sets = _load_period_sets(args)
    series_by = {s.region: s for s in metros}
    report: dict = {
        "config": {
            "tau1": tau1,
            "tau2": tau2,
            "mu": mu,
            "grid_points": grid_points,
            "refinements": refinements,
            "shared_beta": bool(args.shared_beta),
        },
        "metros": {},
    }
    table_rows: list[tuple[str, float | None, float | None]] = []
    for metro in sorted(period_sets):
        ps = period_sets[metro]
        series = series_by.get(metro)
        entry: dict = {
            "periods": [
                {"start": p.start.isoformat(), "end": p.end.isoformat()} for p in ps.periods
            ]
        }
        if series is None:
            print(f"warning: {metro}: no case data; skipped", file=sys.stderr)
            entry["error"] = "no case data"
            report["metros"][metro] = entry
            table_rows.append((metro, None, None))
            continue
        pcts: dict[str, float | None] = {}
        for model in FIT_MODELS:
            try:
                res = tune(
                    model,
                    series,
                    ps,
                    cfg,
                    tau1=tau1,
                    tau2=tau2,
                    mu=mu if model == "reinfect" else 0.0,
                    shared_beta=bool(args.shared_beta),
                )
                params, init, rep = res.params, res.init, res.report
                entry[model] = {
                    "beta": [p.beta for p in params.per_period],
                    "gamma": [p.gamma for p in params.per_period],
                    "tau1": params.tau1,
                    "tau2": params.tau2,
                    "mu": params.mu,
                    "epsilon": params.epsilon,
                    "init": {"s": init.s, "i": init.i, "r": init.r},
                    "k_data": list(res.data_rates.k),
                    "k_sim": list(res.sim_rates.k),
                    "per_period_abs_diff": [p.abs_diff for p in rep.per_period],
                    "weighted_error": rep.weighted_error,
                    "as_percent": rep.as_percent,
                    "clamp_events": res.trajectory.clamp_events,
                }
                pcts[model] = rep.as_percent
            except PipelineError as exc:
                print(f"warning: {metro}/{model}: {exc}", file=sys.stderr)
                entry[model] = {"error": str(exc)}
                pcts[model] = None
        report["metros"][metro] = entry
        table_rows.append((metro, pcts.get("delayed"), pcts.get("reinfect")))
    out = _out_dir(args)
    with open(os.path.join(out, "table2.csv"), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TABLE2_HEADER)
        for metro, delayed_pct, reinfect_pct in table_rows:
            writer.writerow([metro, _na(delayed_pct), _na(reinfect_pct)])
    _write_json(os.path.join(out, "fit_report.json"), report)
    print(f"fit: wrote discrepancies for {len(table_rows)} metro(s) to {out}")
    return 0


_NUMBER = (int, float)


def _report_field(path: str, obj, where: tuple, key, kind):
    """``obj[key]`` of the fit report at ``where``; missing or ill-typed is a ParseError naming it."""
    name = ".".join(str(k) for k in (*where, key))
    try:
        value = obj[key]
    except (KeyError, IndexError, TypeError):
        raise ParseError(f"{path}: field {name} is missing") from None
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ParseError(f"{path}: field {name} has the wrong type: {value!r}")
    return value


def _simulate_inputs(args: argparse.Namespace):
    model = _require(args.model, "--model")
    if model not in VARIANTS:
        raise ConfigError(f"unknown model variant {model!r}; choose from {', '.join(VARIANTS)}")
    if args.fit_report is not None:
        metro = _require(args.metro, "--metro")
        with open(args.fit_report, newline="") as fh:
            try:
                payload = json.load(fh)
            except ValueError as exc:
                raise ParseError(f"{args.fit_report}: {exc}") from None
        path = args.fit_report
        metros = _report_field(path, payload, (), "metros", dict)
        if metro not in metros:
            raise ConfigError(f"{path} has no metro {metro!r}")
        where = ("metros", metro)
        entry = _report_field(path, metros, ("metros",), metro, dict)
        fitted = entry.get(model)
        if fitted is None or "error" in _report_field(path, entry, where, model, dict):
            raise ConfigError(f"{path} has no usable {model} fit for {metro}")

        def items(obj, at, key, kind):
            seq = _report_field(path, obj, at, key, list)
            return [_report_field(path, seq, (*at, key), k, kind) for k in range(len(seq))]

        periods = []
        for i, span in enumerate(items(entry, where, "periods", dict)):
            at = (*where, "periods", i)
            ends = [_report_field(path, span, at, k, str) for k in ("start", "end")]
            try:
                periods.append(Period(i + 1, *map(date.fromisoformat, ends)))
            except ValueError:
                raise ParseError(f"{path}: field {'.'.join(map(str, at))} needs ISO dates") from None
        where += (model,)
        params = PiecewiseParams.from_rates(
            items(fitted, where, "beta", _NUMBER),
            items(fitted, where, "gamma", _NUMBER),
            tau1=_report_field(path, fitted, where, "tau1", int),
            tau2=_report_field(path, fitted, where, "tau2", int),
            mu=_report_field(path, fitted, where, "mu", _NUMBER),
            epsilon=_report_field(path, fitted, where, "epsilon", _NUMBER),
        )
        init = _report_field(path, fitted, where, "init", dict)
        init = SirState(*(_report_field(path, init, (*where, "init"), k, _NUMBER) for k in "sir"))
        return model, params, init, PeriodSet(metro, tuple(periods))
    beta = _to_float(_require(args.beta, "--beta"), "--beta")
    gamma = _to_float(_require(args.gamma, "--gamma"), "--gamma")
    tau1 = _to_int(args.tau1, "--tau1") if args.tau1 is not None else DEFAULT_TAU1
    tau2 = _to_int(args.tau2, "--tau2") if args.tau2 is not None else DEFAULT_TAU2
    mu = _to_float(args.mu, "--mu") if args.mu is not None else 0.0
    epsilon = _to_float(args.epsilon, "--epsilon") if args.epsilon is not None else 0.0
    window = _to_window(args.window) if args.window is not None else DEFAULT_WINDOW
    announcement = (
        _to_date(args.announcement, "--announcement")
        if args.announcement is not None
        else DEFAULT_ANNOUNCEMENT
    )
    anchors = (
        _to_anchors(args.anchors) if args.anchors is not None else default_anchors(announcement)
    )
    periods = initial_periods(window, anchors)
    i0 = _to_float(_require(args.i0, "--i0"), "--i0")
    s0 = _to_float(args.s0, "--s0") if args.s0 is not None else DEFAULT_S0_SCALE * i0
    r0 = _to_float(args.r0, "--r0") if args.r0 is not None else 0.0
    params = PiecewiseParams.from_rates(
        [beta] * 5, [gamma] * 5, tau1=tau1, tau2=tau2, mu=mu, epsilon=epsilon
    )
    return model, params, SirState(s0, i0, r0), periods


def cmd_simulate(args: argparse.Namespace) -> int:
    model, params, init, periods = _simulate_inputs(args)
    inflow = None
    if args.inflow is not None:
        with open(args.inflow, newline="") as fh:
            inflow = load_inflow(fh)
    traj = simulate(model, params, init, periods, inflow)
    window = periods.window

    data_series = None
    if args.cases is not None and args.metro is not None and args.metro_map is not None:
        for series in _load_case_metros(args):
            if series.region == args.metro:
                data_series = series
                break
        if data_series is None:
            print(f"warning: no case data for metro {args.metro}", file=sys.stderr)

    out = _out_dir(args)
    with open(os.path.join(out, "trajectory.csv"), "w", newline="") as fh:
        write_trajectory_csv(traj, fh)
    with open(os.path.join(out, "plotdata.csv"), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PLOTDATA_HEADER)
        for day_idx, state in enumerate(traj.states):
            log_sim = math.log(state.i) if state.i > 0 else None
            log_data = None
            if data_series is not None:
                count = data_series.filled_count(window.start + timedelta(days=day_idx))
                log_data = math.log(count) if count > 0 else None
            writer.writerow([day_idx, _na(log_sim), _na(log_data)])

    totals = [state.total for state in traj.states]
    drift = 0.0
    if totals[0] > 0:
        added = 0.0
        for t, total in enumerate(totals):
            drift = max(drift, abs(total - totals[0] - added) / totals[0])
            if model == "tourism" and t < len(traj.states) - 1:
                added += params.epsilon * inflow.o[t]
    print(f"max relative conservation drift: {drift!r}")
    if traj.clamp_events:
        print(f"clamp events: {traj.clamp_events}")
    print(f"simulate: wrote {len(traj.states)} day(s) to {out}")
    return 0


def cmd_correlate(args: argparse.Namespace) -> int:
    if args.demographics is None and args.weather is None:
        raise ConfigError("correlate needs --demographics and/or --weather")
    metros = _load_case_metros(args)
    period_sets = _load_period_sets(args)
    series_by = {s.region: s for s in metros}
    usable: dict[str, PeriodSet] = {}
    for metro in sorted(period_sets):
        if metro in series_by:
            usable[metro] = period_sets[metro]
        else:
            print(f"warning: {metro}: no case data; skipped", file=sys.stderr)
    response: dict[str, float] = {}
    for metro, ps in usable.items():
        try:
            response[metro] = weighted_avg_growth(data_growth_rates(series_by[metro], ps), ps)
        except PipelineError as exc:
            print(f"warning: {metro}: {exc}; excluded from demographic response", file=sys.stderr)

    out = _out_dir(args)
    studies: dict[str, dict] = {}
    if args.demographics is not None:
        with open(args.demographics, newline="") as fh:
            demo, warnings = load_demographics(fh)
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        demo_report = demographic_study(demo, response)
        with open(os.path.join(out, "table3.csv"), "w", newline="") as fh:
            write_group_report_csv(demo_report, fh)
        studies[demo_report.study] = report_to_dict(demo_report)
    if args.weather is not None:
        with open(args.weather, newline="") as fh:
            weather = load_weather(fh)
        for mode, name in zip(WEATHER_MODES, ("table4.csv", "table5.csv", "table6.csv")):
            weather_report = weather_study(weather, series_by, usable, mode)
            with open(os.path.join(out, name), "w", newline="") as fh:
                write_weather_report_csv(weather_report, fh)
            studies[weather_report.study] = report_to_dict(weather_report)
    payload = {
        "response": {metro: response[metro] for metro in sorted(response)},
        "studies": studies,
    }
    _write_json(os.path.join(out, "correlate_report.json"), payload)
    print(f"correlate: wrote {len(studies)} study table(s) to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epigrowth",
        description="Segment metro case curves, tune SIR-variant rates, and run correlation studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key=value file; explicit flags win")
        p.add_argument("--out", help="output directory (default: current directory)")

    p = sub.add_parser("gen-fixtures", help="write a synthetic input bundle")
    common(p)
    p.add_argument("--seed", help="rng seed (default 0)")
    p.add_argument("--metros", help="number of metros (default 8)")
    p.add_argument("--window", help="START:END dates")
    p.add_argument("--announcement", help="protocol announcement date")
    p.add_argument("--anchors", help="comma-separated boundary dates")
    p.set_defaults(func=cmd_gen_fixtures)

    p = sub.add_parser("segment", help="split each metro curve into five periods")
    common(p)
    p.add_argument("--cases", help="cases CSV (date,region,count)")
    p.add_argument("--metro-map", help="county-to-metro CSV")
    p.add_argument("--window", help="START:END dates")
    p.add_argument("--announcement", help="protocol announcement date")
    p.add_argument("--anchors", help="comma-separated boundary dates")
    p.add_argument("--radius", help="boundary search radius in days")
    p.add_argument("--min-period", help="minimum period length in days")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("fit", help="tune per-period rates for the delayed and reinfection variants")
    common(p)
    p.add_argument("--cases", help="cases CSV")
    p.add_argument("--metro-map", help="county-to-metro CSV")
    p.add_argument("--periods", help="periods CSV from segment")
    p.add_argument("--tau1", help="infection delay in days")
    p.add_argument("--tau2", help="removal delay in days")
    p.add_argument("--mu", help="reinfection rate for the reinfection variant")
    p.add_argument("--grid-points", help="grid points per axis (default 101)")
    p.add_argument("--refinements", help="grid refinement levels (default 3)")
    p.add_argument("--shared-beta", action="store_true", help="tune beta on period 1 only")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="run one variant and write its trajectory")
    common(p)
    p.add_argument("--model", help=f"one of {', '.join(VARIANTS)}")
    p.add_argument("--fit-report", help="fit_report.json to pull parameters from")
    p.add_argument("--metro", help="metro name (with --fit-report or for plot data)")
    p.add_argument("--beta", help="constant infection rate")
    p.add_argument("--gamma", help="constant removal rate")
    p.add_argument("--tau1", help="infection delay in days")
    p.add_argument("--tau2", help="removal delay in days")
    p.add_argument("--mu", help="reinfection rate")
    p.add_argument("--epsilon", help="tourist infection rate")
    p.add_argument("--window", help="START:END dates")
    p.add_argument("--announcement", help="protocol announcement date")
    p.add_argument("--anchors", help="comma-separated boundary dates")
    p.add_argument("--i0", help="initial infected count")
    p.add_argument("--s0", help="initial susceptible count (default 1e5 * i0)")
    p.add_argument("--r0", help="initial removed count (default 0)")
    p.add_argument("--inflow", help="inflow CSV (day,o) for the tourism variant")
    p.add_argument("--cases", help="cases CSV for the plot-data column")
    p.add_argument("--metro-map", help="county-to-metro CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("correlate", help="demographic and weather correlation studies")
    common(p)
    p.add_argument("--cases", help="cases CSV")
    p.add_argument("--metro-map", help="county-to-metro CSV")
    p.add_argument("--periods", help="periods CSV from segment")
    p.add_argument("--demographics", help="demographics CSV")
    p.add_argument("--weather", help="weather CSV")
    p.set_defaults(func=cmd_correlate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())
