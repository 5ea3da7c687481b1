"""The suite's own set-up: a failing property test is reported like any
other failure, and the tests after it still run."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROPERTY_TESTS = '''
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(max_examples=5, derandomize=True, database=None)
def test_fails(x):
    assert x != x


def test_runs_after_the_failure():
    pass
'''


def test_a_failing_property_test_does_not_stop_the_run(tmp_path):
    # the repo's pytest settings (DeprecationWarning is an error) and conftest
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path)
    (tmp_path / "test_property.py").write_text(PROPERTY_TESTS, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert result.returncode == 1, output
    assert "1 failed, 1 passed" in result.stdout
