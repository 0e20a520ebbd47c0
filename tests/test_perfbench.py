"""The benchmark's own oracle tests (``perfbench/test_oracles.py``), run as
its README runs them, in a subprocess: a package change that breaks what
the benchmark reads (``WMeasure.dense``, ``gfpoly.irreducibles``,
``gfpoly.factor``, ...) fails here, not first in a benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_oracle_tests_pass():
    run = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench", "-p", "test_*.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout + run.stderr
