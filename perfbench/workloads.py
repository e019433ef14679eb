"""Benchmark workloads and their input generation.

Run as a script, this module generates one workload's inputs into a
directory and prints the generation time as JSON:

    PYTHONPATH=src python3 perfbench/workloads.py --workload wide-noisy --seed 3 --out DIR

The benchmark runs it in its own process, so the timed pipeline processes only
ever see the files it writes.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import time
from dataclasses import dataclass

# Analysis window of `segment` (its default): every periods.csv must tile it.
ANALYSIS_START = "2020-03-01"
ANALYSIS_END = "2020-06-30"
# `gen-fixtures` simulates the reinfection variant with mu = 0.2; without the
# same --mu, `fit` would tune the reinfect column with mu = 0 and repeat the
# delayed one.
FIT_MU = "0.2"


@dataclass(frozen=True)
class Workload:
    name: str
    metros: int
    feed_window: str | None = None  # gen-fixtures --window; None keeps the analysis window
    noise_sigma: float = 0.0  # lognormal reporting noise on positive county-day counts
    fit_args: tuple[str, ...] = ()
    # Runs of segment, fit and correlate per untraced sample.  Stages much
    # shorter than the sample are repeated so each run has more of their
    # timings; a repeat rewrites the same files.
    repeats: tuple[int, int, int] = (1, 1, 1)

    def stage_argvs(self, in_dir: str, out_dir: str) -> list[list[str]]:
        """argv of the segment, fit and correlate CLI calls, in pipeline order."""
        cases = ["--cases", os.path.join(in_dir, "cases.csv"),
                 "--metro-map", os.path.join(in_dir, "metro_map.csv")]
        periods = ["--periods", os.path.join(out_dir, "periods.csv")]
        return [
            ["segment", *cases, "--out", out_dir],
            ["fit", *cases, *periods, "--mu", FIT_MU, *self.fit_args, "--out", out_dir],
            ["correlate", *cases, *periods,
             "--demographics", os.path.join(in_dir, "demographics.csv"),
             "--weather", os.path.join(in_dir, "weather.csv"), "--out", out_dir],
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
        Workload("fit-default", metros=12, repeats=(3, 1, 5)),
        Workload(
            "wide-noisy",
            metros=48,
            feed_window="2020-03-01:2020-12-31",
            noise_sigma=0.1,
            fit_args=("--grid-points", "21", "--refinements", "1"),
            repeats=(1, 1, 2),
        ),
    )
}


def add_noise(cases_path: str, sigma: float, seed: int) -> None:
    """Scale each positive count by a seeded lognormal(0, sigma) factor, clamped to >= 1."""
    import numpy as np

    with open(cases_path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    positive = [k for k, row in enumerate(body) if int(row[2]) > 0]
    factors = np.random.default_rng([seed, 1]).lognormal(0.0, sigma, len(positive))
    for k, f in zip(positive, factors):
        body[k][2] = str(max(1, round(int(body[k][2]) * float(f))))
    with open(cases_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(body)


def generate(workload: Workload, seed: int, out_dir: str) -> float:
    """Write the workload's input bundle through the real CLI; returns seconds taken."""
    from epigrowth.cli import main

    argv = ["gen-fixtures", "--seed", str(seed), "--metros", str(workload.metros), "--out", out_dir]
    if workload.feed_window:
        argv += ["--window", workload.feed_window]
    t0 = time.perf_counter()
    rc = main(argv)
    if rc != 0:
        raise SystemExit(f"gen-fixtures exited {rc}")
    if workload.noise_sigma:
        add_noise(os.path.join(out_dir, "cases.csv"), workload.noise_sigma, seed)
    return time.perf_counter() - t0


def _main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    gen_s = generate(WORKLOADS[args.workload], args.seed, args.out)
    print(json.dumps({"gen_s": gen_s}))


if __name__ == "__main__":
    _main()
