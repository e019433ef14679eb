"""The benchmark's tracer wraps epigrowth functions by name; each of those names must exist."""

import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves_in_epigrowth():
    spans = types.ModuleType("spans")
    # compiled from the source text, so no bytecode file is written next to it
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans.__dict__)
    assert spans.TARGETS
    missing = [
        (module, name)
        for module, name, _ in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"epigrowth.{module}"), name, None))
    ]
    assert missing == []
