"""The repository's pytest settings report a failing property test like any other failure.

Warnings are errors under ``pyproject.toml``.  A failing hypothesis example
makes the plugin import its patch tooling, whose imports raise a
DeprecationWarning; under ``error`` alone that aborted the whole session with
INTERNALERROR and no summary.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, derandomize=True, database=None)
@given(x=st.integers(0, 10))
def test_property_that_fails(x):
    assert x < 0


def test_plain_that_passes():
    assert True
'''


def test_failing_hypothesis_test_is_reported_not_aborted(tmp_path):
    test_file = tmp_path / "test_fails.py"
    test_file.write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", str(test_file)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
    assert proc.returncode == 1
