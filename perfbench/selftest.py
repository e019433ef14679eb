"""Self-tests of the benchmark harness on a quick workload (3 metros, coarse grid).

    python3 perfbench/selftest.py

Kept out of the repository's pytest suite: it spawns pipeline processes and
takes a few tens of seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import Workload, generate  # noqa: E402

QUICK = Workload(
    "quick",
    metros=3,
    feed_window="2020-03-01:2020-08-31",
    noise_sigma=0.1,
    fit_args=("--grid-points", "11", "--refinements", "1"),
    repeats=(2, 1, 2),
)


def declared(section: str) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[section]


def names(section: str) -> list[str]:
    return sorted(m["name"] for m in declared(section))


class HarnessTest(unittest.TestCase):
    def setUp(self):
        self.work = os.path.join(run.WORK, f"selftest-{os.getpid()}-{self._testMethodName}")
        self.in_dir = os.path.join(self.work, "in")
        os.makedirs(self.in_dir)
        with contextlib.redirect_stdout(io.StringIO()):
            generate(QUICK, 5, self.in_dir)

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def measure(self, trace: bool) -> dict:
        return run.measure(QUICK, 5, 0, trace, self.work, in_dir=self.in_dir)

    def test_untraced_run_reports_every_end_to_end_metric(self):
        detail = self.measure(trace=False)
        self.assertTrue(detail["correct"], detail["problems"])
        self.assertEqual(detail["failed"], 0)
        self.assertEqual(sorted(detail["metrics"]), names("end_to_end"))
        self.assertTrue(all(v > 0 for v in detail["metrics"].values()), detail["metrics"])
        self.assertEqual([detail["stage_s"][st]["n"] for st in run.STAGES], [2, 1, 2])
        self.assertEqual(detail["setup"]["n"], run.SETUP_SPAWNS_PER_ROUND)
        # every stage run and set-up spawn is rescaled by its own reference timing
        self.assertEqual(detail["reference_s"]["n"], 5)
        self.assertEqual(detail["wall_setup"]["n"], run.SETUP_SPAWNS_PER_ROUND)
        line = json.loads(run.result_line(detail, declared("end_to_end")))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})

    def test_traced_run_names_layers_and_matches_untraced_outputs(self):
        detail = self.measure(trace=True)
        # correct covers: same digest traced and untraced, nested spans, names restored
        self.assertTrue(detail["correct"], detail["problems"])
        self.assertEqual(sorted(detail["metrics"]), names("per_layer"))
        m = detail["metrics"]
        self.assertEqual(m["fit.tune_calls"], 2 * QUICK.metros)
        self.assertEqual(m["sir.simulate_calls"], 2 * QUICK.metros)
        self.assertEqual(m["fit.data_growth_rates_calls"], 4 * QUICK.metros)
        self.assertEqual(m["fit.candidate_days"], 2 * QUICK.metros * 11 * 11 * 2 * 122)
        self.assertGreater(m["segment.optimize_s"], 0)
        # one round: one untraced/traced pair, each stage run once
        self.assertEqual(len(detail["trace_overhead_per_pair"]), 1)
        self.assertEqual([detail["stage_s"][st]["n"] for st in run.STAGES], [1, 1, 1])

    def test_all_zero_metro_raises_failed_frac(self):
        with open(os.path.join(self.in_dir, "cases.csv"), "a") as fh:
            for day in range(1, 31):
                fh.write(f"2020-04-{day:02d},zero-county,0\n")
        with open(os.path.join(self.in_dir, "metro_map.csv"), "a") as fh:
            fh.write("zero-county,zero-metro\n")
        detail = self.measure(trace=False)
        self.assertTrue(detail["correct"], detail["problems"])
        self.assertGreater(detail["failed_frac"], 0)
        self.assertEqual(detail["failed"], 3)  # its segment item and both fit items


class SpanTest(unittest.TestCase):
    def test_install_and_uninstall_restore_every_name(self):
        import epigrowth.cli
        import epigrowth.fit

        original = epigrowth.cli.tune
        tracer = spans.Tracer()
        patches = spans.install(tracer)
        self.assertIsNot(epigrowth.cli.tune, original)
        self.assertIs(epigrowth.fit.tune, epigrowth.cli.tune)
        self.assertTrue(spans.uninstall(patches))
        self.assertIs(epigrowth.cli.tune, original)

    def test_nesting_violations_are_reported(self):
        good = [["cli.fit", 0.0, 10.0, None, 0, None, False],
                ["fit.tune", 1.0, 4.0, 0, 0, None, False],
                ["fit.tune", 4.0, 9.0, 0, 0, None, False]]
        selfs, problems = spans.self_times(good)
        self.assertEqual(problems, [])
        self.assertEqual(selfs, [2.0, 3.0, 5.0])
        bad = [["cli.fit", 0.0, 10.0, None, 0, None, False],
               ["fit.tune", 1.0, 11.0, 0, 0, None, False]]
        self.assertTrue(spans.self_times(bad)[1])

    def test_reference_speed_rescales_by_the_nominal_kernel_time(self):
        nominal = run.reference.REFERENCE_S
        self.assertAlmostEqual(run.at_reference(3.0, nominal), 3.0)
        self.assertAlmostEqual(run.at_reference(3.0, 2 * nominal), 1.5)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail(list(range(19))))
        self.assertEqual(run.tail(list(range(20)))[0], "p50")
        self.assertEqual(run.tail(list(range(100)))[0], "p90")


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = os.path.join(run.WORK, f"bare-{os.getpid()}")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "fit-default", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
