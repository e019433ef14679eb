"""Run every benchmark workload and print each metric with its unit, direction and sample count.

    python3 perfbench/suite.py                       # one untraced and one traced run per workload
    python3 perfbench/suite.py --seeds 1-10          # ten untraced runs per workload, with spreads
    python3 perfbench/suite.py --out perfbench/baseline

Each run is a separate ``perfbench/run.py`` process, so the numbers are the
ones the benchmark command itself reports; the workloads and the seconds per
run are the ones in BENCHMARK.json.  The suite fails (exit 1) when a run's
output check fails, an item fails, the traced digest differs from the
untraced one, or a seed's digest differs from the one recorded for it in
``perfbench/baseline/results.json`` (outputs changed versus the baseline).
Each metric's median is also printed as a relative change against that
baseline's median.  ``--out`` writes ``results.json`` and ``layers.md`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

from run import tail

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline", "results.json")


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int, report: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--report", report],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    with open(report) as fh:
        return json.load(fh)


def spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median (None below 2 values)."""
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else None


def workload_summary(runs: list[dict], traced: dict, declared: list[dict], baseline: dict) -> dict:
    problems = [f"seed {r['seed']}: {p}" for r in runs + [traced] for p in r["problems"]]
    problems += [f"seed {r['seed']}: {r['failed']} failed item(s)" for r in runs + [traced] if r["failed"]]
    if traced["digest"] != runs[0]["digest"]:
        problems.append("traced output digest differs from the untraced one")
    problems += [f"seed {r['seed']}: output digest differs from the baseline's"
                 for r in runs if baseline.get("digests", {}).get(str(r["seed"]), r["digest"]) != r["digest"]]
    metrics = {}
    for m in declared:
        values = [r["metrics"][m["name"]] for r in runs]
        stage = m["name"][:-2]
        if stage in runs[0]["stage_s"]:
            pooled = [v for r in runs for v in r["stage_s"][stage]["values"]]
        elif m["name"] == "setup_s":
            pooled = [v for r in runs for v in r["setup"]["values"]]
        else:
            pooled = values
        s = spread(values)
        metrics[m["name"]] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "median": statistics.median(values), "runs": len(values), "samples": len(pooled),
            "spread": s, "values": values,
        }
        t = tail(pooled)
        if t:
            metrics[m["name"]]["tail"] = {"percentile": t[0], "value": t[1]}
        base = baseline.get("metrics", {}).get(m["name"])
        if base:
            metrics[m["name"]]["vs_baseline"] = metrics[m["name"]]["median"] / base["median"] - 1
    layers = traced["metrics"]
    stage_layers = traced["stage_layers"]
    selfs: dict[str, float] = {}
    for row in stage_layers.values():
        for layer, secs in row.items():
            selfs[layer] = selfs.get(layer, 0.0) + secs
    return {
        "seeds": [r["seed"] for r in runs],
        "digests": {str(r["seed"]): r["digest"] for r in runs},
        "failed_frac": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
        "metrics": metrics,
        "per_layer": layers,
        "per_layer_tails": {k: traced[k] for k in ("segment.optimize_ms_tail", "fit.tune_ms_tail")},
        "trace_overhead_per_pair": traced["trace_overhead_per_pair"],
        "stage_layers": stage_layers,
        "untraced_stage_s": traced["untraced_stage_s"],
        "largest_layer": max((k for k in selfs if not k.startswith("cli.")), key=selfs.get),
        "env": runs[0]["env"],
        "problems": problems,
    }


def print_summary(name: str, summary: dict) -> None:
    print(f"== {name}  seeds={summary['seeds']}  failed_frac={summary['failed_frac']:g}  "
          f"largest layer={summary['largest_layer']}")
    print(f"   digest(seed {summary['seeds'][0]})={summary['digests'][str(summary['seeds'][0])]}")
    for metric, m in summary["metrics"].items():
        sp = "" if m["spread"] is None else f" spread={m['spread']:.4f} (bound {m['bound']})"
        tail = f" {m['tail']['percentile']}={m['tail']['value']:.6g}" if "tail" in m else ""
        vs = f" vs baseline {m['vs_baseline']:+.4f}" if "vs_baseline" in m else ""
        print(f"   {metric:16s} {m['median']:<22.10g} {m['unit']:9s} {m['better']:6s} "
              f"runs={m['runs']} samples={m['samples']}{tail}{sp}{vs}")
    for p in summary["problems"]:
        print(f"   PROBLEM: {p}")


def layers_markdown(summaries: dict, declared: list[dict]) -> str:
    names = list(summaries)
    lines = ["# Per-layer numbers from the traced run", "",
             "| metric | unit | " + " | ".join(names) + " |",
             "| --- | --- | " + " | ".join("---:" for _ in names) + " |"]
    for m in declared:
        cells = [f"{summaries[n]['per_layer'][m['name']]:.6g}" for n in names]
        lines.append(f"| `{m['name']}` | {m['unit']} | " + " | ".join(cells) + " |")
    lines += ["", "Self seconds per traced span, by stage (median over traced samples):", ""]
    for n in names:
        s = summaries[n]
        lines.append(f"## {n} (largest layer: `{s['largest_layer']}`)")
        lines.append("")
        pairs = ", ".join(f"{r:+.3f}" for r in s["trace_overhead_per_pair"])
        lines.append(f"Traced ÷ untraced pipeline time − 1, per round: {pairs}.")
        lines.append("")
        lines.append("| stage | span | self s |")
        lines.append("| --- | --- | ---: |")
        for stage, row in s["stage_layers"].items():
            for span, secs in sorted(row.items(), key=lambda kv: -kv[1]):
                lines.append(f"| {stage} | `{span}` | {secs:.4f} |")
            untraced = s["untraced_stage_s"][stage.split(".", 1)[1]]
            lines.append(f"| {stage} | **traced total / untraced median** | "
                         f"{sum(row.values()):.4f} / {untraced:.4f} |")
        lines.append("")
    return "\n".join(lines)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    ap = argparse.ArgumentParser(description="run every workload of BENCHMARK.json")
    ap.add_argument("--seeds", default="1", help="seeds for untraced runs, e.g. 1-10 or 1,4")
    ap.add_argument("--out", help="directory to write results.json and layers.md into")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    baseline = {}
    if os.path.isfile(BASELINE):
        with open(BASELINE) as fh:
            baseline = json.load(fh)["workloads"]
    tmp = os.path.join(ROOT, ".perfbench_work", f"suite-{os.getpid()}")
    os.makedirs(tmp)
    summaries = {}
    try:
        for name in (w["name"] for w in bench["workloads"]):
            runs = [run_once(name, seed, seconds, 0, os.path.join(tmp, f"{name}-{seed}.json"))
                    for seed in seeds]
            traced = run_once(name, seeds[0], seconds, 1, os.path.join(tmp, f"{name}-t.json"))
            summaries[name] = workload_summary(runs, traced, bench["end_to_end"], baseline.get(name, {}))
            print_summary(name, summaries[name])
            sys.stdout.flush()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "results.json"), "w") as fh:
            json.dump({"seconds": seconds, "workloads": summaries}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        with open(os.path.join(args.out, "layers.md"), "w") as fh:
            fh.write(layers_markdown(summaries, bench["per_layer"]) + "\n")
    return 1 if any(s["problems"] for s in summaries.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
