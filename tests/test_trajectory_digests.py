"""Same-seed training runs keep their trajectories bit for bit.

``bench/trajectory_digests.py`` prints a digest of each of 32 fixed runs
(training and comparison, every predictor kind); run with one BLAS thread,
its output must equal the digest lines of ``tests/data/trajectory_digests.txt``
byte for byte. A run's last bits also depend on numpy, its BLAS build and
the CPU, which the file's ``# key: value`` lines record; where one of them
differs the test skips, naming it. The file is rewritten, from the
repository root, by

    python tests/test_trajectory_digests.py [SRC]

SRC being the source tree to run, ``src`` by default. A change that alters
trajectories on purpose records from its own tree. A change to the runs
themselves, which leaves the code's trajectories alone, records from the
parent's tree (a ``git archive`` of it) before editing ``src``, so that the
file that pins the change comes from the code before it.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "tests" / "data" / "trajectory_digests.txt"


def environment() -> dict:
    """numpy's version, its BLAS build and the CPU: its model name and the
    SIMD extensions numpy found on it."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    model = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    return {"numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']} {blas.get('openblas configuration', '')}",
            "cpu": model, "simd": " ".join(config["SIMD Extensions"]["found"])}


def digests(src=ROOT / "src") -> str:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "trajectory_digests.py"),
                           str(src)], cwd=ROOT, env=env, capture_output=True,
                          text=True, check=True)
    return proc.stdout


def test_the_trajectory_digests_are_the_recorded_ones():
    lines = RECORD.read_text().splitlines(keepends=True)
    recorded = dict(line[2:].rstrip("\n").split(": ", 1) for line in lines
                    if line.startswith("# "))
    differ = [f"{key} {recorded.get(key)!r} here {value!r}"
              for key, value in environment().items() if recorded.get(key) != value]
    if differ:
        pytest.skip("recorded under another " + "; ".join(differ))
    assert digests() == "".join(line for line in lines if not line.startswith("# "))


if __name__ == "__main__":
    RECORD.write_text("".join(f"# {key}: {value}\n" for key, value in environment().items())
                      + digests(*sys.argv[1:2]))
