"""The repo's conftest keeps a failing property test from ending the session.

A two-file suite, a failing `@given` test and a failing plain test, runs
under warnings as errors with `tests/conftest.py` copied in, in a
subprocess: both failures must be reported.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

SUITE = {
    "test_a_property.py": (
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_property_fails(x):\n"
        "    assert x != x\n"
    ),
    "test_b_plain.py": "def test_plain_fails():\n    assert False\n",
    "pytest.ini": "[pytest]\nfilterwarnings = error\n",
}


def test_failing_property_test_does_not_stop_the_session(tmp_path):
    for name, text in SUITE.items():
        (tmp_path / name).write_text(text)
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert "2 failed" in out, out
