"""The suite's pytest configuration reports a failing test like any other."""

import subprocess
import sys
import warnings
from pathlib import Path

import pytest

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(n):
    assert n < 5
"""


def test_failing_hypothesis_test_is_reported(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    assert "1 failed" in output.splitlines()[-1]
    assert run.returncode == 1


def test_other_warnings_stay_errors():
    with pytest.raises(DeprecationWarning):
        warnings.warn("some_module.Thing is deprecated", DeprecationWarning)
    with pytest.raises(UserWarning):
        warnings.warn("mypy_extensions.TypedDict is deprecated")
