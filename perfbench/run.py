"""epigrowth pipeline benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fit-default --seed 1 --seconds 30 --trace 0

Run from the repository root.  Inputs are generated from the seed in a
separate process; then each sample runs the segment, fit and correlate CLI
stages in a fresh process (perfbench/pipeline.py) until the time budget is
spent, and every sample's outputs are checked.  With ``--trace 0`` the last
stdout line carries the end-to-end metrics named in BENCHMARK.json; with
``--trace 1`` untraced and traced samples alternate and it carries the
per-layer metrics.  End-to-end timings are reported at reference speed: each
stage run and each set-up spawn is rescaled by the reference kernel
(reference.py) timed just before and just after it, which takes out the
host's drifting speed.  The wall-clock medians are printed beside them.
``--report FILE`` also writes the full detail (samples, tails, layer table,
environment) as JSON.

Only this harness's own processes are measured: no system-wide tracing, no
hardware counters, no cache dropping, no cgroup or kernel changes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import checks
import reference
import spans
from workloads import WORKLOADS, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_SPAWNS_PER_ROUND = 4
SAMPLE_TIMEOUT_S = 170
STAGES = ("segment", "fit", "correlate")
MEASURED_ONLY = ("only the harness's own processes were measured: no system-wide tracing, "
                 "no hardware counters, no cache dropping, no cgroup or kernel changes")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile, p in [0, 100]."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def tail(values: list[float]) -> tuple[str, float] | None:
    """Highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for tenths in (999, 990, 950, 900, 750, 500):
        if len(values) * (1000 - tenths) >= 10_000:
            return f"p{tenths / 10:g}", percentile(values, tenths / 10)
    return None


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "measured": MEASURED_ONLY,
    }


def generate(workload: Workload, seed: int, in_dir: str) -> float:
    os.makedirs(in_dir)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", workload.name,
         "--seed", str(seed), "--out", in_dir],
        env=child_env(), capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["gen_s"]


def time_setup() -> float:
    """Seconds from spawning a fresh interpreter until it has imported epigrowth.cli and built its parser.

    The child reads the same monotonic clock when build_parser() returns, so
    interpreter teardown and the wait for its exit are not counted.
    """
    argv = [sys.executable, "-c",
            "import time, epigrowth.cli as c; c.build_parser(); print(repr(time.perf_counter()))"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=child_env(), check=True, timeout=SAMPLE_TIMEOUT_S,
                          capture_output=True, text=True)
    return float(proc.stdout) - t0


def run_sample(workload: Workload, in_dir: str, sample_dir: str, run_id: int, traced: bool,
               repeats: tuple[int, int, int]) -> dict:
    """Run the three stages in a fresh process and check what they wrote."""
    out_dir = os.path.join(sample_dir, "out")
    os.makedirs(out_dir)
    spec = {
        "stages": workload.stage_argvs(in_dir, out_dir),
        "repeats": repeats,
        "trace": traced,
        "run": run_id,
        "result": os.path.join(sample_dir, "result.json"),
        "spans": os.path.join(sample_dir, "spans.jsonl"),
    }
    spec_path = os.path.join(sample_dir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, os.path.join(HERE, "pipeline.py"), spec_path],
                   env=child_env(), check=True, timeout=SAMPLE_TIMEOUT_S, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    with open(spec["result"]) as fh:
        result = json.load(fh)
    result["wall_s"] = wall
    result["traced"] = traced
    result["check"] = checks.check_sample(in_dir, out_dir, result["stages"])
    if traced:
        span_list = spans.load(spec["spans"])
        result["layers"], result["stage_layers"], nesting = spans.layer_totals(span_list)
        if not result["restored"]:
            nesting.append("a wrapped name was not restored")
        result["check"]["problems"] += nesting
    shutil.rmtree(sample_dir)
    return result


def at_reference(seconds: float, ref_s: float) -> float:
    """Seconds rescaled to the speed at which the reference kernel takes REFERENCE_S."""
    return seconds * reference.REFERENCE_S / ref_s


def stage_runs(sample: dict, stage: str, scaled: bool) -> list[float]:
    """Seconds of each run of one stage in a sample, wall or at reference speed."""
    entry = sample["stages"][stage]
    if not scaled:
        return entry["s"]
    return [at_reference(t, r) for t, r in zip(entry["s"], entry["ref_s"])]


def pipeline_s(sample: dict, scaled: bool = False) -> float:
    """Segment + fit + correlate seconds of one sample (median of each stage's repeats)."""
    return sum(statistics.median(stage_runs(sample, st, scaled)) for st in STAGES)


def layer_metrics(sample: dict, case_rows: int) -> dict:
    """Per-layer numbers of one traced sample (durations are pooled separately)."""
    layers = sample["layers"]

    def get(name: str, key: str):
        entry = layers.get(name)
        return entry[key] if entry else 0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    cells = [get("correlate.weather_study", "work") or [0, 0],
             get("correlate.demographic_study", "work") or [0, 0]]
    load_s = get("timeseries.load_cases", "incl_s")
    return {
        "timeseries.load_cases_s": load_s,
        "timeseries.case_rows_per_s": ratio(case_rows * get("timeseries.load_cases", "calls"), load_s),
        "timeseries.aggregate_s": get("timeseries.aggregate_to_metros", "incl_s"),
        "timeseries.to_log_series_calls": get("timeseries.to_log_series", "calls"),
        "segment.optimize_s": get("segment.optimize_boundaries", "incl_s"),
        "segment.skipped": get("segment.optimize_boundaries", "errors"),
        "fit.tune_calls": get("fit.tune", "calls"),
        "fit.tune_self_s": get("fit.tune", "self_s"),
        "fit.candidate_days": get("fit.tune", "work") or 0,
        "fit.ns_per_candidate_day": ratio(1e9 * get("fit.tune", "self_s"), get("fit.tune", "work") or 0),
        "fit.data_growth_rates_calls": get("fit.data_growth_rates", "calls"),
        "fit.errors": get("fit.tune", "errors") + get("sir.simulate", "errors"),
        "sir.simulate_calls": get("sir.simulate", "calls"),
        "sir.simulate_s": get("sir.simulate", "incl_s"),
        "sir.days_per_s": ratio(get("sir.simulate", "work") or 0, get("sir.simulate", "incl_s")),
        "regress.fit_simple_calls": get("regress.fit_simple", "calls"),
        "regress.fit_simple_s": get("regress.fit_simple", "incl_s"),
        "regress.fit_multi_calls": get("regress.fit_multi", "calls"),
        "regress.fit_multi_s": get("regress.fit_multi", "incl_s"),
        "correlate.weather_study_self_s": get("correlate.weather_study", "self_s"),
        "correlate.load_weather_s": get("correlate.load_weather", "incl_s"),
        "correlate.demographic_study_s": get("correlate.demographic_study", "incl_s"),
        "correlate.cells_estimated_frac": ratio(sum(c[0] for c in cells), sum(c[1] for c in cells)),
        "cli.segment_self_s": get("cli.segment", "self_s"),
        "cli.fit_self_s": get("cli.fit", "self_s"),
        "cli.correlate_self_s": get("cli.correlate", "self_s"),
    }


def summarize(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "n": len(values), "values": values}
    t = tail(values)
    if t:
        out["tail"] = {"percentile": t[0], "value": t[1]}
    return out


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work_dir: str,
            in_dir: str | None = None) -> dict:
    """Run one benchmark run; returns the detail dict (metrics, samples, checks)."""
    detail: dict = {"workload": workload.name, "seed": seed, "seconds": seconds,
                    "trace": trace, "env": environment()}
    if in_dir is None:
        in_dir = os.path.join(work_dir, "in")
        detail["gen_s"] = generate(workload, seed, in_dir)
    with open(os.path.join(in_dir, "cases.csv")) as fh:
        case_rows = sum(1 for _ in fh) - 1

    t_start = time.perf_counter()
    setups: list[float] = []  # at reference speed
    setups_wall: list[float] = []
    if not trace:
        time_setup()  # warm the bytecode cache
    # A round is one untraced sample plus setup spawns (--trace 0), or one
    # untraced and one traced sample in alternating order (--trace 1), so
    # drift over the run cancels within each traced/untraced pair.
    samples: list[dict] = []
    pairs: list[tuple[dict, dict]] = []
    while True:
        t_round = time.perf_counter()
        if trace:
            kinds = (False, True) if len(pairs) % 2 == 0 else (True, False)
            repeats = (1, 1, 1)  # traced and untraced samples do the same work
        else:
            ref = reference.kernel()
            for _ in range(SETUP_SPAWNS_PER_ROUND):
                setups_wall.append(time_setup())
                after = reference.kernel()
                setups.append(at_reference(setups_wall[-1], (ref + after) / 2))
                ref = after
            kinds, repeats = (False,), workload.repeats
        for traced in kinds:
            sample_dir = os.path.join(work_dir, f"sample-{len(samples)}")
            samples.append(run_sample(workload, in_dir, sample_dir, len(samples), traced, repeats))
        if trace:
            pairs.append(tuple(sorted(samples[-2:], key=lambda s: s["traced"])))
        elapsed = time.perf_counter() - t_start
        if elapsed + (time.perf_counter() - t_round) > seconds:
            break
    detail["env"]["loadavg_after"] = list(os.getloadavg())

    plain = [s for s in samples if not s["traced"]]
    traced_samples = [s for s in samples if s["traced"]]
    problems = [p for s in samples for p in s["check"]["problems"]]
    digests = {s["check"]["digest"] for s in samples}
    if len(digests) != 1:
        problems.append(f"outputs differ between samples: {len(digests)} distinct digests")
    first = plain[0]["check"]
    stage_times = {st: [t for s in plain for t in stage_runs(s, st, False)] for st in STAGES}
    scaled_times = {st: [t for s in plain for t in stage_runs(s, st, True)] for st in STAGES}
    ref_times = [r for s in plain for st in STAGES for r in s["stages"][st]["ref_s"]]
    detail.update(
        correct=not problems,
        problems=problems[:20],
        digest=first["digest"],
        metros=first["metros"],
        attempted=sum(s["check"]["attempted"] for s in samples),
        failed=sum(s["check"]["failed"] for s in samples),
        stage_s={st: summarize(v) for st, v in scaled_times.items()},
        wall_stage_s={st: summarize(v) for st, v in stage_times.items()},
        reference_s=summarize(ref_times),
        setup=summarize(setups) if setups else None,
        wall_setup=summarize(setups_wall) if setups else None,
    )
    detail["failed_frac"] = detail["failed"] / detail["attempted"]
    if not trace:
        detail["metrics"] = {
            "metros_per_s": statistics.median(first["metros"] / pipeline_s(s, True) for s in plain),
            "segment_s": statistics.median(scaled_times["segment"]),
            "fit_s": statistics.median(scaled_times["fit"]),
            "correlate_s": statistics.median(scaled_times["correlate"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(s["peak_rss_kb"] / 1024 for s in plain),
            "segment_r2": first["segment_r2"],
            "fit_error_pct": first["fit_error_pct"],
        }
        return detail

    per_sample = [layer_metrics(s, case_rows) for s in traced_samples]
    metrics = {name: statistics.median(m[name] for m in per_sample) for name in per_sample[0]}
    for prefix, span_name in (("segment.optimize", "segment.optimize_boundaries"),
                              ("fit.tune", "fit.tune")):
        durations = [1e3 * d for s in traced_samples
                     for d in s["layers"].get(span_name, {}).get("durations", [])] or [0.0]
        # With fewer than 20 calls no percentile has ten beyond it; the tail
        # then repeats the median, and the detail says which percentile it is.
        label, value = tail(durations) or ("p50", percentile(durations, 50))
        metrics[f"{prefix}_ms_p50"] = percentile(durations, 50)
        metrics[f"{prefix}_ms_tail"] = value
        detail[f"{prefix}_ms_tail"] = {"percentile": label, "n": len(durations)}
    metrics["fixtures.gen_s"] = detail.get("gen_s", 0.0)
    ratios = [pipeline_s(t) / pipeline_s(u) for u, t in pairs]
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1
    detail["trace_overhead_per_pair"] = [r - 1 for r in ratios]
    detail["metrics"] = metrics
    detail["stage_layers"] = {
        stage: {name: statistics.median(s["stage_layers"][stage].get(name, 0.0) for s in traced_samples)
                for name in row}
        for stage, row in traced_samples[0]["stage_layers"].items()
    }
    detail["untraced_stage_s"] = {st: statistics.median(v) for st, v in stage_times.items()}
    return detail


def result_line(detail: dict, declared: list[dict]) -> str:
    metrics = {m["name"]: {"value": detail["metrics"][m["name"]], "unit": m["unit"]} for m in declared}
    return json.dumps({"correct": detail["correct"], "attempted": detail["attempted"],
                       "failed": detail["failed"], "metrics": metrics})


def print_detail(detail: dict, declared: list[dict]) -> None:
    env = detail["env"]
    print(f"# {detail['workload']} seed={detail['seed']} trace={int(detail['trace'])} "
          f"metros={detail['metros']} digest={detail['digest']}")
    print(f"# python {env['python']} numpy {env['numpy']} cpu_count={env['cpu_count']} "
          f"affinity={env['affinity_cores']} loadavg {env['loadavg'][0]:.2f} -> "
          f"{env['loadavg_after'][0]:.2f}; {env['measured']}")
    print(f"# items attempted={detail['attempted']} failed={detail['failed']} "
          f"failed_frac={detail['failed_frac']:g} correct={detail['correct']}")
    for problem in detail["problems"]:
        print(f"# problem: {problem}")
    walls = {f"{st}_s": detail["wall_stage_s"][st]["median"] for st in STAGES}
    if detail["wall_setup"]:
        walls["setup_s"] = detail["wall_setup"]["median"]
    print("# wall-clock medians: " + ", ".join(f"{k} {v:.4f}" for k, v in walls.items())
          + f"; reference kernel median {detail['reference_s']['median']:.4f} s"
          f" (n={detail['reference_s']['n']}, nominal {reference.REFERENCE_S} s)")
    counts = {f"{st}_s": detail["stage_s"][st] for st in STAGES}
    if detail["setup"]:
        counts["setup_s"] = detail["setup"]
    for m in declared:
        value = detail["metrics"][m["name"]]
        info = counts.get(m["name"], {})
        extra = f" n={info['n']}" if info else ""
        if info.get("tail"):
            extra += f" {info['tail']['percentile']}={info['tail']['value']:.6g}"
        print(f"{m['name']:34s} {value!s:>24} {m['unit']:16s} {m['better']:6s}{extra}")
    for stage, row in detail.get("stage_layers", {}).items():
        untraced = detail["untraced_stage_s"].get(stage.split(".", 1)[1])
        print(f"# {stage}: traced {sum(row.values()):.4f} s vs untraced median {untraced:.4f} s")
        for name, secs in sorted(row.items(), key=lambda kv: -kv[1]):
            print(f"#   {name:34s} self {secs:.4f} s")


def main() -> int:
    ap = argparse.ArgumentParser(description="epigrowth pipeline benchmark (one run)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--report", help="also write the full detail as JSON to this file")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "epigrowth", "cli.py")):
        print(f"error: no epigrowth sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]

    work_dir = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(work_dir)
    try:
        detail = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                         work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(detail, fh, indent=1, sort_keys=True)
    print_detail(detail, declared)
    print(result_line(detail, declared))
    return 0


if __name__ == "__main__":
    sys.exit(main())
