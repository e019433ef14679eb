"""Command line pipeline: gen-fixtures, segment, fit, simulate, correlate.

Every subcommand takes ``--config FILE`` with one ``key=value`` per line
(``#`` comments allowed); explicit flags win over config values.  Exit codes:
0 success, 2 bad or insufficient input data, 3 I/O failure, 4 bad
configuration or usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import pickle
import re
import sys
from datetime import date, timedelta
from typing import Callable, NamedTuple

from .correlate import (
    CorrelationReport,
    demographic_study,
    load_demographics,
    load_weather,
    weather_studies,
    weighted_avg_growth,
    write_demographics_csv,
    write_group_report_csv,
    write_weather_csv,
    write_weather_report_csv,
)
from .errors import (ConfigError, InsufficientDataError, ParseError, PipelineError, ValidationError,
                     error_prefix)
from .fit import DEFAULT_S0_SCALE, SearchConfig, TuneJob, data_growth_rates, tune, tune_batch
from .fixtures import make_bundle
from .segment import (
    DEFAULT_ANNOUNCEMENT,
    DEFAULT_MIN_PERIOD,
    DEFAULT_SEARCH_RADIUS,
    DEFAULT_WINDOW,
    NUM_PERIODS,
    Period,
    PeriodSet,
    default_anchors,
    initial_periods,
    load_periods_csv,
    optimize_boundaries,
    protocol_followed_date,
    write_periods_csv,
)
from .sir import (
    DEFAULT_TAU1,
    DEFAULT_TAU2,
    VARIANTS,
    PiecewiseParams,
    SirState,
    check_variant,
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
    parse_date,
    write_cases_csv,
    write_metro_map_csv,
    write_table,
)

TABLE2_HEADER = ("metro", "only_delayed_pct", "reinfected_pct")
PROTOCOL_HEADER = ("metro", "first_case", "protocol_date", "note")
PLOTDATA_HEADER = ("day", "log_i_sim", "log_i_data")
FIT_MODELS = ("delayed", "reinfect")
# `fit` batches its jobs rather than calling tune, but the benchmark's tracer
# (perfbench/spans.py) wraps tune in every module that binds it, and its
# self-test reads this module's binding.
_TRACED = (tune,)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


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
        return parse_date(str(value))
    except ValueError:
        raise ConfigError(f"{flag}: expected YYYY-MM-DD, got {value!r}") from None


def _to_window(value, flag: str) -> DateInterval:
    parts = str(value).split(":")
    if len(parts) != 2:
        raise ConfigError(f"{flag}: expected START:END, got {value!r}")
    start = _to_date(parts[0], flag)
    end = _to_date(parts[1], flag)
    if end < start:
        raise ConfigError(f"{flag}: end {end} precedes start {start}")
    return DateInterval(start, end)


def _to_anchors(value, flag: str) -> tuple[date, ...]:
    parts = [p for p in str(value).split(",") if p.strip()]
    if len(parts) != NUM_PERIODS - 1:
        raise ConfigError(f"{flag}: expected {NUM_PERIODS - 1} dates, got {len(parts)}")
    return tuple(_to_date(p.strip(), flag) for p in parts)


def _to_bool(value, flag: str) -> bool:
    low = str(value).lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{flag}: expected a boolean, got {value!r}")


class _Option(NamedTuple):
    """One option of a subcommand: its flag, how a flag or config value is read, its default.

    ``convert`` None keeps the value as given (a path or a name); ``_to_bool``
    makes the flag a switch.  ``minimum`` rejects a converted value below it.
    """

    flag: str
    help: str
    convert: Callable | None = None
    default: object = None
    minimum: int | None = None

    @property
    def key(self) -> str:
        return self.flag[2:].replace("-", "_")


def _resolve_options(args: argparse.Namespace) -> None:
    """Set each option of the subcommand on ``args``: its flag, else its config value, else default.

    A flag or config value is converted and checked; a default is used as it is.  A config
    key is an option's flag name, with ``-`` or ``_``; any other key is rejected.
    """
    keys = {opt.key for opt in args.options} - {"config"}
    pairs: dict[str, str] = {}
    if args.config is not None:
        try:
            lines = _read(args.config, list)  # one str per line, its line end kept
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.config}: not UTF-8 text (byte {exc.start})") from None
        for line_num, raw in enumerate(lines, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{args.config}:{line_num}: expected key=value")
            if "\0" in line:  # no path, flag or value holds one; open() would raise ValueError
                raise ConfigError(f"{args.config}:{line_num}: NUL character")
            key, _, value = line.partition("=")
            pairs[key.strip().replace("-", "_")] = value.strip()
    for key in pairs:
        if key not in keys:
            raise ConfigError(f"{args.config}: unknown key {key!r}")
    for opt in args.options:
        raw = getattr(args, opt.key)
        if raw is None:
            raw = pairs.get(opt.key)
        if raw is None:
            value = opt.default
        else:
            value = raw if opt.convert is None else opt.convert(raw, opt.flag)
            if opt.minimum is not None and value < opt.minimum:
                raise ConfigError(f"{opt.flag} must be >= {opt.minimum}, got {value!r}")
        setattr(args, opt.key, value)


def _out_dir(args: argparse.Namespace) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _anchors(args: argparse.Namespace) -> tuple[date, ...]:
    """``--anchors`` or the ``--announcement`` defaults, which must ascend inside ``--window``."""
    anchors = default_anchors(args.announcement) if args.anchors is None else args.anchors
    try:
        initial_periods(args.window, anchors)
    except ValidationError as exc:
        raise ConfigError(f"--anchors: {exc}") from None
    return anchors


def _read(path: str, load: Callable):
    """``load(fh)``, ``fh`` being ``path`` open as UTF-8 text whatever the locale, line ends as read."""
    with open(path, encoding="utf-8", newline="") as fh:
        return load(fh)


def _write(path: str, dump: Callable) -> None:
    """``dump(fh)``, ``fh`` being ``path`` open as UTF-8 text whatever the locale, line ends as written."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        dump(fh)


def _load_case_metros(args: argparse.Namespace):
    series, warnings = _read(_require(args.cases, "--cases"), load_cases)
    for w in warnings:
        _warn(w)
    return aggregate_to_metros(series, _read(_require(args.metro_map, "--metro-map"), load_metro_map))


def _write_json(path: str, payload: dict) -> None:
    """Write ``payload`` as sorted, indented JSON; a dataclass in it is written as its fields."""
    _write(path, lambda fh: fh.write(json.dumps(payload, sort_keys=True, indent=2, default=vars) + "\n"))


def _map_in_order(fn, items: list) -> list:
    """``fn(items)``, with ``items`` cut into one contiguous chunk per core, each run in a forked child.

    ``fn`` maps a list of items to one result per item.  Each child pickles its
    results, or the exception ``fn`` raised, into a pipe and leaves by
    ``os._exit``.  Every pipe is read and every child reaped, in input order,
    before the first exception is raised here, so the output does not depend
    on the core count; a child that ends without a result raises
    ChildProcessError.  The CLI starts no threads a fork could catch
    mid-update.  With one core, one item or no ``os.fork``, ``fn`` runs here.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(len(items), cores)
    if workers <= 1 or not hasattr(os, "fork"):
        return fn(items)
    cuts = [len(items) * k // workers for k in range(workers + 1)]
    children: list = []
    try:
        for a, b in zip(cuts, cuts[1:]):
            read_end, write_end = os.pipe()
            if (pid := os.fork()) == 0:  # the child never returns into the caller
                try:
                    try:
                        outcome = (fn(items[a:b]), None)
                    except BaseException as exc:  # raised again in the parent
                        outcome = (None, exc)
                    with open(write_end, "wb") as pipe:
                        pickle.dump(outcome, pipe)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_end)
            children.append((pid, open(read_end, "rb")))
    finally:  # also after a failed fork: no child is left behind
        ended = []
        for pid, pipe in children:
            with pipe:
                ended.append((pid, pipe.read(), os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])))
    results = []
    for pid, payload, code in ended:
        if code:
            how = f"exited with status {code}" if code > 0 else f"was killed by signal {-code}"
            raise ChildProcessError(f"worker process {pid} {how} before sending its results")
        chunk, exc = pickle.loads(payload)
        if exc is not None:
            raise exc
        results += chunk
    return results


def _fit_chunk(chunk, *, mu, **kwargs):
    """``tune``'s result, or the PipelineError it raised, for each model of each (series, periods).

    A metro's seed state and data rates are found once for both models, and
    ``tune_batch`` runs the jobs as one kernel batch per model.
    """
    jobs: list = []
    for series, periods in chunk:
        known: dict = {}
        for model in FIT_MODELS:
            try:
                job = TuneJob(model, series, periods, mu=mu if model == "reinfect" else 0.0,
                              **known, **kwargs)
                known = {"init": job.init, "rates": job.rates}
            except PipelineError as exc:
                job = exc
            jobs.append(job)
    done = iter(tune_batch([job for job in jobs if not isinstance(job, PipelineError)]))
    return [job if isinstance(job, PipelineError) else next(done) for job in jobs]


def cmd_gen_fixtures(args: argparse.Namespace) -> int:
    bundle = make_bundle(args.seed, args.metros, args.window, args.announcement, _anchors(args))
    out = _out_dir(args)
    for name, write, table in (
        ("cases.csv", write_cases_csv, bundle.cases),
        ("metro_map.csv", write_metro_map_csv, bundle.metro_map),
        ("demographics.csv", write_demographics_csv, bundle.demographics),
        ("weather.csv", write_weather_csv, bundle.weather),
        ("inflow.csv", write_inflow_csv, bundle.inflow),
    ):
        _write(os.path.join(out, name), functools.partial(write, table))
    _write_json(os.path.join(out, "fixture_params.json"), bundle.manifest())
    print(f"gen-fixtures: wrote {args.metros} metro(s) to {out}")
    return 0


def cmd_segment(args: argparse.Namespace) -> int:
    anchors = _anchors(args)
    period_sets = []
    protocol_rows: list[tuple[str, date | None, date | None, str]] = []
    skipped = 0
    for series in _load_case_metros(args):
        first_case = next((series.start_date + timedelta(days=idx)
                           for idx, c in enumerate(series.counts) if c > 0), None)
        try:
            ps = optimize_boundaries(series, initial_periods(args.window, anchors, series.region),
                                     search_radius=args.radius, min_period_length=args.min_period)
        except InsufficientDataError as exc:
            _warn(f"{series.region}: {exc}; skipped")
            protocol_rows.append((series.region, first_case, None, "no fittable periods"))
            skipped += 1
            continue
        period_sets.append(ps)
        call = protocol_followed_date(ps, args.announcement)
        protocol_rows.append((series.region, first_case, call.date, call.note))
    out = _out_dir(args)
    _write(os.path.join(out, "periods.csv"), functools.partial(write_periods_csv, period_sets))
    protocol_rows.sort(key=lambda r: (r[2] is None, r[2] or date.min, r[0]))
    _write(os.path.join(out, "protocol.csv"), lambda fh: write_table(fh, PROTOCOL_HEADER, protocol_rows))
    tail = f", skipped {skipped}" if skipped else ""
    print(f"segment: wrote periods for {len(period_sets)} metro(s) to {out}{tail}")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    cfg = SearchConfig(points=args.grid_points, refinement_levels=args.refinements)
    metros = _load_case_metros(args)
    period_sets = _read(_require(args.periods, "--periods"), load_periods_csv)
    series_by = {s.region: s for s in metros}
    settings = ("tau1", "tau2", "mu", "grid_points", "refinements", "shared_beta")
    report: dict = {"config": {key: getattr(args, key) for key in settings}, "metros": {}}
    table_rows: list[tuple[str, float | None, float | None]] = []
    todo = [(series_by[m], period_sets[m]) for m in sorted(period_sets) if m in series_by]
    job = functools.partial(
        _fit_chunk, cfg=cfg, tau1=args.tau1, tau2=args.tau2, mu=args.mu, shared_beta=args.shared_beta
    )
    results = iter(_map_in_order(job, todo))
    for metro in sorted(period_sets):
        ps = period_sets[metro]
        entry: dict = {
            "periods": [
                {"start": p.start.isoformat(), "end": p.end.isoformat()} for p in ps.periods
            ]
        }
        if metro not in series_by:
            _warn(f"{metro}: no case data; skipped")
            entry["error"] = "no case data"
            report["metros"][metro] = entry
            table_rows.append((metro, None, None))
            continue
        pcts: dict[str, float | None] = {}
        for model in FIT_MODELS:
            res = next(results)
            if isinstance(res, PipelineError):
                _warn(f"{metro}/{model}: {res}")
                entry[model] = {"error": str(res)}
                pcts[model] = None
                continue
            entry[model] = {
                **vars(res.params),
                "init": res.init,
                "k_data": res.k_data,
                "k_sim": res.k_sim,
                "per_period_abs_diff": res.per_period_abs_diff,
                "weighted_error": res.weighted_error,
                "as_percent": res.as_percent,
            }
            pcts[model] = res.as_percent
        report["metros"][metro] = entry
        table_rows.append((metro, pcts.get("delayed"), pcts.get("reinfect")))
    out = _out_dir(args)
    _write(os.path.join(out, "table2.csv"), lambda fh: write_table(fh, TABLE2_HEADER, table_rows))
    _write_json(os.path.join(out, "fit_report.json"), report)
    print(f"fit: wrote discrepancies for {len(table_rows)} metro(s) to {out}")
    return 0


_NUMBER = (int, float)
# A fit-report entry as simulate reads it, keyed as the records it builds: PiecewiseParams, SirState, Period.
_REPORT_MODEL = {"beta": [_NUMBER], "gamma": [_NUMBER], "tau1": int, "tau2": int, "mu": _NUMBER,
                 "epsilon": _NUMBER, "init": dict.fromkeys("sir", _NUMBER)}
_REPORT_PERIODS = [{"start": str, "end": str}]


def _report_field(path: str, obj, where: tuple, key, shape):
    """``obj[key]`` of the fit report at ``where``, as ``shape`` (a JSON type, a list of one shape or a
    dict of shapes) declares it; missing or ill-typed is a ParseError naming the field."""
    name = ".".join(str(k) for k in (*where, key))
    try:
        value = obj[key]
    except (KeyError, IndexError, TypeError):
        raise ParseError(f"{path}: field {name} is missing") from None
    kind = type(shape) if isinstance(shape, (list, dict)) else shape
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ParseError(f"{path}: field {name} has the wrong type: {value!r}")
    if isinstance(shape, list):
        return [_report_field(path, value, (*where, key), k, shape[0]) for k in range(len(value))]
    if isinstance(shape, dict):
        return {k: _report_field(path, value, (*where, key), k, item) for k, item in shape.items()}
    return value


def _simulate_inputs(args: argparse.Namespace):
    model = _require(args.model, "--model")
    check_variant(model)
    if args.fit_report is not None:
        metro = _require(args.metro, "--metro")
        path = args.fit_report
        try:
            payload = _read(path, json.load)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"{path}: {exc}") from None
        metros = _report_field(path, payload, (), "metros", dict)
        if metro not in metros:
            raise ConfigError(f"{path} has no metro {metro!r}")
        where = ("metros", metro)
        entry = _report_field(path, metros, ("metros",), metro, dict)
        if entry.get(model) is None or "error" in _report_field(path, entry, where, model, dict):
            raise ConfigError(f"{path} has no usable {model} fit for {metro}")
        periods, record = [], f"{path}: metros.{metro}"
        for i, span in enumerate(_report_field(path, entry, where, "periods", _REPORT_PERIODS)):
            try:
                with error_prefix(f"{record}.periods"):
                    periods.append(Period(i + 1, **{k: parse_date(v) for k, v in span.items()}))
            except ValueError:
                raise ParseError(f"{path}: field metros.{metro}.periods.{i} needs ISO dates") from None
        fields = _report_field(path, entry, where, model, _REPORT_MODEL)
        init = fields.pop("init")
        with error_prefix(f"{record}.{model}"):
            params, state = PiecewiseParams(**fields), SirState(**init)
        with error_prefix(f"{record}.periods"):
            return model, params, state, PeriodSet(metro, tuple(periods))
    beta = _require(args.beta, "--beta")
    gamma = _require(args.gamma, "--gamma")
    periods = initial_periods(args.window, _anchors(args))
    i0 = _require(args.i0, "--i0")
    s0 = DEFAULT_S0_SCALE * i0 if args.s0 is None else args.s0
    params = PiecewiseParams(
        [beta] * 5, [gamma] * 5, tau1=args.tau1, tau2=args.tau2, mu=args.mu, epsilon=args.epsilon
    )
    return model, params, SirState(s0, i0, args.r0), periods


def cmd_simulate(args: argparse.Namespace) -> int:
    model, params, init, periods = _simulate_inputs(args)
    inflow = None if args.inflow is None else _read(args.inflow, load_inflow)
    traj = simulate(model, params, init, periods, inflow)
    window = periods.window

    data_series = None
    if args.cases is not None or args.metro_map is not None:  # the data need all three flags
        metro = _require(args.metro, "--metro")
        data_series = next((series for series in _load_case_metros(args) if series.region == metro), None)
        if data_series is None:
            _warn(f"no case data for metro {metro}")

    out = _out_dir(args)
    _write(os.path.join(out, "trajectory.csv"), functools.partial(write_trajectory_csv, traj))
    plot_rows = []
    for day_idx, i in enumerate(traj.i):
        log_sim = math.log(i) if i > 0 else None
        log_data = None
        if data_series is not None:
            count = data_series.filled_count(window.start + timedelta(days=day_idx))
            log_data = math.log(count) if count > 0 else None
        plot_rows.append((day_idx, log_sim, log_data))
    _write(os.path.join(out, "plotdata.csv"), lambda fh: write_table(fh, PLOTDATA_HEADER, plot_rows))

    totals = [s + i + r for s, i, r in zip(traj.s, traj.i, traj.r)]
    drift = 0.0
    if totals[0] > 0:
        added = 0.0
        for t, total in enumerate(totals):
            drift = max(drift, abs(total - totals[0] - added) / totals[0])
            if model == "tourism" and t < len(traj) - 1:
                added += params.epsilon * inflow.o[t]
    print(f"max relative conservation drift: {drift!r}")
    print(f"simulate: wrote {len(traj)} day(s) to {out}")
    return 0


def cmd_correlate(args: argparse.Namespace) -> int:
    if args.demographics is None and args.weather is None:
        raise ConfigError("correlate needs --demographics and/or --weather")
    metros = _load_case_metros(args)
    period_sets = _read(_require(args.periods, "--periods"), load_periods_csv)
    series_by = {s.region: s for s in metros}
    usable: dict[str, PeriodSet] = {}
    for metro in sorted(period_sets):
        if metro in series_by:
            usable[metro] = period_sets[metro]
        else:
            _warn(f"{metro}: no case data; skipped")
    response: dict[str, float] = {}
    for metro, ps in usable.items():
        try:
            response[metro] = weighted_avg_growth(data_growth_rates(series_by[metro], ps), ps)
        except PipelineError as exc:
            _warn(f"{metro}: {exc}; excluded from demographic response")

    out = _out_dir(args)
    studies: dict[str, CorrelationReport] = {}
    if args.demographics is not None:
        demo, warnings = _read(args.demographics, load_demographics)
        for w in warnings:
            _warn(w)
        demo_report = demographic_study(demo, response)
        _write(os.path.join(out, "table3.csv"), functools.partial(write_group_report_csv, demo_report))
        studies[demo_report.study] = demo_report
    if args.weather is not None:
        reports = weather_studies(_read(args.weather, load_weather), series_by, usable)
        for weather_report, name in zip(reports, ("table4.csv", "table5.csv", "table6.csv")):
            _write(os.path.join(out, name), functools.partial(write_weather_report_csv, weather_report))
            studies[weather_report.study] = weather_report
    payload = {
        "response": {metro: response[metro] for metro in sorted(response)},
        "studies": studies,
    }
    _write_json(os.path.join(out, "correlate_report.json"), payload)
    print(f"correlate: wrote {len(studies)} study table(s) to {out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argparse parser that reads every token starting with '-' and a digit as a value.

    argparse's own pattern misses the exponent form, so ``--beta -1e-6`` would
    be taken for an unknown option; no option of this CLI starts with a digit.
    A usage error raises ConfigError (one line, exit 4); subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message: str):
        raise ConfigError(message)


_COMMON = (
    _Option("--config", "key=value file; explicit flags win"),
    _Option("--out", "output directory (default: current directory)", default="."),
)
_CASES = (
    _Option("--cases", "cases CSV (date,region,count)"),
    _Option("--metro-map", "county-to-metro CSV"),
)
_PERIODS = _Option("--periods", "periods CSV from segment")
_CALENDAR = (
    _Option("--window", "START:END dates", _to_window, DEFAULT_WINDOW),
    _Option("--announcement", "protocol announcement date", _to_date, DEFAULT_ANNOUNCEMENT),
    _Option("--anchors", "comma-separated boundary dates", _to_anchors),
)
_DELAY_MODEL = (
    _Option("--tau1", "infection delay in days", _to_int, DEFAULT_TAU1, minimum=0),
    _Option("--tau2", "removal delay in days", _to_int, DEFAULT_TAU2, minimum=0),
    _Option("--mu", "reinfection rate", _to_float, 0.0, minimum=0),
)

# subcommand: (help, function, options after the common ones); the order is that of --help
_COMMANDS = {
    "gen-fixtures": ("write a synthetic input bundle", cmd_gen_fixtures, (
        _Option("--seed", "rng seed (default 0)", _to_int, 0, minimum=0),
        _Option("--metros", "number of metros (default 8)", _to_int, 8, minimum=1),
        *_CALENDAR,
    )),
    "segment": ("split each metro curve into five periods", cmd_segment, (
        *_CASES,
        *_CALENDAR,
        _Option("--radius", "boundary search radius in days", _to_int, DEFAULT_SEARCH_RADIUS,
                minimum=0),
        _Option("--min-period", "minimum period length in days", _to_int, DEFAULT_MIN_PERIOD,
                minimum=1),
    )),
    "fit": ("tune per-period rates for the delayed and reinfection variants", cmd_fit, (
        *_CASES,
        _PERIODS,
        *_DELAY_MODEL,
        _Option("--grid-points", "grid points per axis (default 101)", _to_int, 101, minimum=1),
        _Option("--refinements", "grid refinement levels (default 3)", _to_int, 3, minimum=0),
        _Option("--shared-beta", "tune beta on period 1 only", _to_bool, False),
    )),
    "simulate": ("run one variant and write its trajectory", cmd_simulate, (
        _Option("--model", f"one of {', '.join(VARIANTS)}"),
        _Option("--fit-report", "fit_report.json to pull parameters from"),
        _Option("--metro", "metro name (with --fit-report or for plot data)"),
        _Option("--beta", "constant infection rate", _to_float, minimum=0),
        _Option("--gamma", "constant removal rate", _to_float, minimum=0),
        *_DELAY_MODEL,
        _Option("--epsilon", "tourist infection rate", _to_float, 0.0, minimum=0),
        *_CALENDAR,
        _Option("--i0", "initial infected count", _to_float, minimum=0),
        _Option("--s0", "initial susceptible count (default 1e5 * i0)", _to_float, minimum=0),
        _Option("--r0", "initial removed count (default 0)", _to_float, 0.0, minimum=0),
        _Option("--inflow", "inflow CSV (day,o) for the tourism variant"),
        *_CASES,
    )),
    "correlate": ("demographic and weather correlation studies", cmd_correlate, (
        *_CASES,
        _PERIODS,
        _Option("--demographics", "demographics CSV"),
        _Option("--weather", "weather CSV"),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="epigrowth",
        description="Segment metro case curves, tune SIR-variant rates, and run correlation studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        options = (*_COMMON, *options)
        for opt in options:
            switch = {"action": "store_true", "default": None} if opt.convert is _to_bool else {}
            p.add_argument(opt.flag, help=opt.help, **switch)
        p.set_defaults(func=func, options=options)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _resolve_options(args)
        return args.func(args)
    except (PipelineError, OSError, MemoryError, UnicodeEncodeError) as exc:
        if isinstance(exc, UnicodeEncodeError):  # a path the file-system encoding cannot hold
            exc = OSError(f"{exc.object}: the file-system encoding ({exc.encoding}) cannot hold this path")
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return (4 if isinstance(exc, (ConfigError, MemoryError))
                else 2 if isinstance(exc, PipelineError) else 3)


def entrypoint() -> None:
    sys.exit(main())
