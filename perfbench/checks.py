"""Output checks, item accounting, quality metrics and the output digest of one sample.

The expected headers are the documented file formats, written out here rather
than imported from epigrowth, so a format change in the program shows up as a
failed check instead of silently passing.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from datetime import date, timedelta

from workloads import ANALYSIS_END, ANALYSIS_START

INPUT_FILES = {
    "cases.csv": "date,region,count",
    "metro_map.csv": "county,metro",
    "demographics.csv": "metro,group,subcategory,value",
    "weather.csv": "metro,date,type,high,low",
    "inflow.csv": "day,o",
    "fixture_params.json": None,
}
OUTPUT_FILES = {
    "periods.csv": "metro,period_index,start,end,slope,intercept,r2",
    "protocol.csv": "metro,first_case,protocol_date,note",
    "table2.csv": "metro,only_delayed_pct,reinfected_pct",
    "table3.csv": "group,subcategory,p_value,group_r2",
    "table4.csv": "metro,P1,P2,P3,P4,P5",
    "table5.csv": "metro,P1,P2,P3,P4,P5",
    "table6.csv": "metro,P1,P2,P3,P4,P5",
    "fit_report.json": None,
    "correlate_report.json": None,
}
# fit_error_pct is reported no lower than this many percent.  On noise-free
# input the discrepancy sits at rounding level (~1e-6 %), where any change in
# summation order would read as a large relative swing; the floor turns the
# relative bound into an absolute one there.
FIT_ERROR_FLOOR_PCT = 1e-3


def _rows(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def digest(in_dir: str, out_dir: str) -> str:
    """sha256 over the 15 artifact files, by name, inputs then outputs."""
    h = hashlib.sha256()
    for folder, names in ((in_dir, INPUT_FILES), (out_dir, OUTPUT_FILES)):
        for name in sorted(names):
            with open(os.path.join(folder, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def _structure(in_dir: str, out_dir: str) -> list[str]:
    problems = []
    for folder, files in ((in_dir, INPUT_FILES), (out_dir, OUTPUT_FILES)):
        for name, header in files.items():
            path = os.path.join(folder, name)
            if not os.path.isfile(path):
                problems.append(f"{name} missing")
                continue
            if header is None:
                try:
                    with open(path) as fh:
                        json.load(fh)
                except ValueError as exc:
                    problems.append(f"{name} is not JSON: {exc}")
            else:
                with open(path, newline="") as fh:
                    first = fh.readline().rstrip("\n")
                if first != header:
                    problems.append(f"{name} header {first!r}, expected {header!r}")
    return problems


def _periods(rows: list[list[str]]) -> tuple[dict[str, list[list[str]]], list[str]]:
    by_metro: dict[str, list[list[str]]] = {}
    for row in rows[1:]:
        by_metro.setdefault(row[0], []).append(row)
    problems = []
    window_start, window_end = date.fromisoformat(ANALYSIS_START), date.fromisoformat(ANALYSIS_END)
    for metro, prs in by_metro.items():
        if [int(r[1]) for r in prs] != [1, 2, 3, 4, 5]:
            problems.append(f"periods.csv: {metro} does not list periods 1..5 in order")
            continue
        expect = window_start
        for r in prs:
            start, end = date.fromisoformat(r[2]), date.fromisoformat(r[3])
            if start != expect or end < start:
                problems.append(f"periods.csv: {metro} period {r[1]} is not contiguous")
                break
            expect = end + timedelta(days=1)
        else:
            if expect - timedelta(days=1) != window_end:
                problems.append(f"periods.csv: {metro} periods end before {ANALYSIS_END}")
    return by_metro, problems


def check_sample(in_dir: str, out_dir: str, stages: dict) -> dict:
    """Validate one sample's artifacts and count its items.

    Items are one per metro for segment and one per (metro, model) for fit.
    Skipped metros, error entries and a non-zero stage exit (all of that
    stage's items) count as failed.
    """
    problems = [f"{name} exited {st['rc']}: {(st['log'].strip().splitlines() or [''])[-1]}"
                for name, st in stages.items() if st["rc"] != 0]
    structure = _structure(in_dir, out_dir)
    problems += structure
    metros = sorted({row[1] for row in _rows(os.path.join(in_dir, "metro_map.csv"))[1:]})
    out = {"metros": len(metros), "problems": problems, "digest": None,
           "attempted": 3 * len(metros), "failed": 3 * len(metros),
           "segment_r2": None, "fit_error_pct": None}
    if structure:
        return out
    by_metro, period_problems = _periods(_rows(os.path.join(out_dir, "periods.csv")))
    problems += period_problems

    table2 = {row[0]: row[1:] for row in _rows(os.path.join(out_dir, "table2.csv"))[1:]}
    pcts = [float(v) for vals in table2.values() for v in vals if v != "NA"]
    seg_failed = len(metros) if stages["segment"]["rc"] else len(set(metros) - set(by_metro))
    fit_failed = 2 * len(metros) if stages["fit"]["rc"] else 2 * len(metros) - len(pcts)
    out["failed"] = seg_failed + fit_failed

    with open(os.path.join(out_dir, "fit_report.json")) as fh:
        report_metros = json.load(fh).get("metros", {})
    if set(report_metros) != set(by_metro) or set(table2) != set(by_metro):
        problems.append("fit outputs do not cover exactly the segmented metros")
    for name in ("table4.csv", "table5.csv", "table6.csv"):
        if {row[0] for row in _rows(os.path.join(out_dir, name))[1:]} != set(by_metro):
            problems.append(f"{name} does not list exactly the segmented metros")
    with open(os.path.join(out_dir, "correlate_report.json")) as fh:
        studies = json.load(fh).get("studies", {})
    if len(studies) != 4:
        problems.append(f"correlate_report.json holds {len(studies)} studies, expected 4")

    r2s = []
    for prs in by_metro.values():
        lengths = [(date.fromisoformat(r[3]) - date.fromisoformat(r[2])).days + 1 for r in prs]
        r2s.append(sum(float(r[6]) * n for r, n in zip(prs, lengths)) / sum(lengths))
    out["segment_r2"] = sum(r2s) / len(r2s) if r2s else None
    out["fit_error_pct"] = max(sum(pcts) / len(pcts), FIT_ERROR_FLOOR_PCT) if pcts else None
    out["digest"] = digest(in_dir, out_dir)
    return out
