"""The pytest settings in pyproject.toml keep a failing property test's
report intact."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(x):
    assert x < 5
'''


def test_failing_property_test_shows_its_falsifying_example(tmp_path):
    # With every warning an error, a warning raised while the report is
    # written would end the run in INTERNALERROR and lose the example.
    (tmp_path / "test_falsified.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example: test_small(" in out
    assert "INTERNALERROR" not in out
