"""The repository's pytest configuration, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    assert True
'''


def test_failing_hypothesis_test_reports_and_run_continues(tmp_path):
    # warnings are errors, yet hypothesis's failure report (which imports
    # libcst) must print the falsifying example and let the session go on
    (tmp_path / "test_pair.py").write_text(FAILING_THEN_PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         str(tmp_path / "test_pair.py")],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=120)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
    assert "Falsifying example: test_fails(" in proc.stdout
