"""One benchmark sample: run the segment, fit and correlate CLI stages in this fresh process.

    PYTHONPATH=src python3 perfbench/pipeline.py SPEC.json

SPEC holds ``stages`` (argv lists for ``epigrowth.cli.main``), ``repeats``
(how many times to run each stage, untraced samples only), ``trace`` (bool),
``run`` (span run id), ``result`` (path of the JSON result to write) and
``spans`` (path of the span dump, traced runs only).  The result records each
stage's exit code (the first non-zero one), wall time of every repeat and
console output, the process's peak RSS and, when traced, whether every
wrapped name was restored.  Untraced, the reference kernel (reference.py)
is timed before the first stage run and after each one, and every stage run
records ``ref_s``, the mean of the two kernel times around it.  A stage
writes the same files on every repeat, so repeats only add timing samples.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def run_stage(cli, argv: list[str]) -> dict:
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 4
        except Exception:  # a traceback is a failed stage, not a crashed benchmark
            traceback.print_exc()
            rc = 1
    return {"rc": rc, "s": time.perf_counter() - t0, "log": buf.getvalue()}


def main(spec_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    import epigrowth.cli as cli

    result: dict = {"stages": {}}
    if spec["trace"]:
        import spans

        tracer = spans.Tracer(spec["run"])
        patches = spans.install(tracer)
        try:
            for argv in spec["stages"]:
                idx = tracer.open(f"cli.{argv[0]}")
                stage = run_stage(cli, argv)
                tracer.close(idx, time.perf_counter())
                result["stages"][argv[0]] = dict(stage, s=[stage["s"]])
        finally:
            result["restored"] = spans.uninstall(patches)
        tracer.dump(spec["spans"])
    else:
        import reference

        ref = reference.kernel()
        for argv, repeats in zip(spec["stages"], spec["repeats"]):
            runs = []
            for _ in range(repeats):
                runs.append(run_stage(cli, argv))
                after = reference.kernel()
                runs[-1]["ref"] = (ref + after) / 2
                ref = after
            result["stages"][argv[0]] = {
                "rc": next((r["rc"] for r in runs if r["rc"]), 0),
                "s": [r["s"] for r in runs],
                "ref_s": [r["ref"] for r in runs],
                "log": runs[-1]["log"],
            }
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
