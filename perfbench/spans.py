"""Outside-in layer tracing: wrap public epigrowth functions, record spans, derive layer numbers.

Only public names are wrapped, so the layer numbers stay comparable while the
private kernels behind them (``_grid_eval``, ``_WindowFits``, ``_advance``,
``_clamp3``) are merged or replaced.  cProfile is not used: it charges every
Python call and skews the proportions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# Spans are lists: [name, start, end, parent index or None, run id, work, error].
NAME, START, END, PARENT, RUN, WORK, ERROR = range(7)


def _candidate_days(bound: inspect.BoundArguments, result) -> int:
    """Grid candidates x refinement levels x period days that one tune() call evaluates.

    Computed from the arguments, so it ignores the tuner's early exit when no
    candidate is feasible on the full grid.
    """
    from epigrowth.fit import SearchConfig

    args = bound.arguments
    cfg = args.get("cfg") or SearchConfig()
    shared = args.get("shared_beta", False)
    levels = cfg.refinement_levels + 1
    total = 0
    for idx, period in enumerate(args["periods"].periods):
        cands = cfg.gamma_points * (1 if shared and idx > 0 else cfg.beta_points)
        total += cands * levels * period.length
    return total


def _simulated_days(bound: inspect.BoundArguments, result) -> int:
    return len(result)


def _cells(bound: inspect.BoundArguments, result) -> list[int]:
    """[cells with a p-value, cells attempted] of a correlation report."""
    return [sum(1 for c in result.cells if c.p_value is not None), len(result.cells)]


# (module, public name, work counter or None)
TARGETS = (
    ("timeseries", "load_cases", None),
    ("timeseries", "aggregate_to_metros", None),
    ("timeseries", "to_log_series", None),
    ("segment", "optimize_boundaries", None),
    ("fit", "tune", _candidate_days),
    ("fit", "data_growth_rates", None),
    ("sir", "simulate", _simulated_days),
    ("regress", "fit_simple", None),
    ("regress", "fit_multi", None),
    ("correlate", "load_weather", None),
    ("correlate", "weather_study", _cells),
    ("correlate", "demographic_study", _cells),
)


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self, run: int = 0):
        self.run = run
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, None, parent, self.run, None, False])
        self._stack.append(idx)
        self.spans[idx][START] = time.perf_counter()
        return idx

    def close(self, idx: int, end: float, work=None, error: bool = False) -> None:
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][NAME]} closed out of order")
        span = self.spans[idx]
        span[END], span[WORK], span[ERROR] = end, work, error

    def wrap(self, name: str, fn, work=None):
        sig = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, time.perf_counter(), error=True)
                raise
            end = time.perf_counter()
            self.close(idx, end, work(sig.bind(*args, **kwargs), result) if work else None)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every target in every epigrowth module that bound it; returns the patch list."""
    patches = []
    for mod_name, name, work in TARGETS:
        original = getattr(importlib.import_module(f"epigrowth.{mod_name}"), name)
        wrapper = tracer.wrap(f"{mod_name}.{name}", original, work)
        for key, module in sorted(sys.modules.items()):
            if (key == "epigrowth" or key.startswith("epigrowth.")) and getattr(
                module, name, None
            ) is original:
                setattr(module, name, wrapper)
                patches.append((module, name, original))
    return patches


def uninstall(patches: list[tuple]) -> bool:
    """Put every original back; True when each patched name holds its original again."""
    for module, name, original in reversed(patches):
        setattr(module, name, original)
    return all(getattr(module, name) is original for module, name, original in patches)


def load(path: str) -> list[list]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def self_times(spans: list[list]) -> tuple[list[float], list[str]]:
    """Self time of each span (duration minus its children) and any nesting violations."""
    selfs = [s[END] - s[START] for s in spans]
    problems = []
    for idx, span in enumerate(spans):
        parent = span[PARENT]
        if parent is None:
            continue
        outer = spans[parent]
        if span[START] < outer[START] or span[END] > outer[END]:
            problems.append(f"span {idx} {span[NAME]} lies outside its parent {outer[NAME]}")
        selfs[parent] -= span[END] - span[START]
    # Siblings run one after another, so subtracting each child's duration
    # leaves a negative self time exactly when children overlap or overflow.
    problems += [
        f"span {idx} {spans[idx][NAME]} has negative self time {t!r}"
        for idx, t in enumerate(selfs)
        if t < 0
    ]
    return selfs, problems


def layer_totals(spans: list[list]) -> tuple[dict, dict, list[str]]:
    """Summarize spans; returns (per name, per stage, nesting problems).

    Per name: calls, errors, inclusive and self seconds, summed work and call
    durations.  Per stage: self seconds of each span name under each root
    (``cli.<stage>``) span, which add up to that stage span exactly.
    """
    selfs, problems = self_times(spans)
    totals: dict = defaultdict(lambda: {"calls": 0, "errors": 0, "incl_s": 0.0, "self_s": 0.0,
                                        "work": None, "durations": []})
    by_stage: dict = defaultdict(lambda: defaultdict(float))
    root: list[int] = []
    for idx, (span, self_s) in enumerate(zip(spans, selfs)):
        parent = span[PARENT]
        root.append(idx if parent is None else root[parent])
        by_stage[spans[root[idx]][NAME]][span[NAME]] += self_s
        entry = totals[span[NAME]]
        dur = span[END] - span[START]
        entry["calls"] += 1
        entry["errors"] += bool(span[ERROR])
        entry["incl_s"] += dur
        entry["self_s"] += self_s
        entry["durations"].append(dur)
        work = span[WORK]
        if work is not None:
            if isinstance(work, list):
                prev = entry["work"] or [0] * len(work)
                entry["work"] = [a + b for a, b in zip(prev, work)]
            else:
                entry["work"] = (entry["work"] or 0) + work
    return dict(totals), {stage: dict(row) for stage, row in by_stage.items()}, problems
