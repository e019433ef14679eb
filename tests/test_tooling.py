"""The test configuration reports a failing test instead of aborting the session."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_probe(x):
    assert x < 5
'''


def test_a_failing_hypothesis_test_reports_its_example_under_the_repo_config(tmp_path):
    # On failure Hypothesis's plugin imports libcst, which warns DeprecationWarning at import;
    # the config's error filter must not turn that into an INTERNALERROR.
    (tmp_path / "test_probe.py").write_text(PROBE, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), str(tmp_path / "test_probe.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example" in output and "INTERNALERROR" not in output, output
