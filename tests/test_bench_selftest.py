"""The benchmark's toy-shape self-test, run as part of the test suite.

``bench/tracing.py`` wraps capgnn's public functions and reads their
positional arguments (the model and adjacency of ``forward`` and
``backward``, among others), so an API change that the unit tests accept
can still break the benchmark. This test catches that here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
