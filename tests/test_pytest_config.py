import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
'''


def test_a_failing_property_test_is_reported_as_a_failure(tmp_path):
    # hypothesis reports a failure through libcst, which imports a deprecated
    # name; were that warning an error, pytest would stop with an internal
    # error (exit code 3) and report no failure
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(ROOT / "pyproject.toml"), "test_fails.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
