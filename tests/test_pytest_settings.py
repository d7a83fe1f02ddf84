"""The test settings of ``pyproject.toml`` let a failing test fail alone.

The settings turn every ``DeprecationWarning`` into an error.  Hypothesis
reports a failing example through ``libcst``, whose import warns that
``mypy_extensions.TypedDict`` is deprecated; as an error, that warning
aborted the whole session with ``INTERNALERROR``, so every later test went
unrun.  The settings ignore that one third-party message.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_AND_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x < 0


def test_a_passing_test():
    pass
'''


def test_a_failing_hypothesis_test_leaves_the_next_test_running(tmp_path):
    (tmp_path / "test_sample.py").write_text(FAILING_AND_PASSING, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
    assert run.returncode == 1
