"""The benchmark's own self-tests pass on this tree.

``perfbench/selftest.py`` runs every workload at tiny size, with tracing off
and on, and checks that each per-layer counter is non-zero on the workloads
that exercise its layer (``selftest.EXERCISED_BY``).  Running it here makes
a change that empties a timed layer fail the suite, not only the benchmark.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    res = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")], cwd=ROOT,
                         env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-4000:]
