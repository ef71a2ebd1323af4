"""The repository's pytest settings, exercised by a pytest run in a child process."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_fails(n):
    assert False


def test_runs_after():
    pass
'''


def test_failing_hypothesis_test_does_not_stop_the_session(tmp_path):
    # hypothesis imports libcst to report a failing example, and that import
    # warns: under the settings' warnings-as-errors rules the failure must stay
    # a failure (exit code 1), not an internal error that ends the run (3)
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
