"""The benchmark's per-layer tracer still finds every layer it times.

``perfbench/layers.py`` records a timed layer function that no longer exists
as missing and reports zeros for it, so deleting or renaming one would
silently empty a per-layer metric.  The tracer rebinds package attributes,
so it runs in a subprocess.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import qslsense
import qslsense.cli
from layers import Tracer

tracer = Tracer()
tracer.install(qslsense)
print(json.dumps(tracer.missing))
"""


def test_tracer_finds_every_timed_layer():
    src = str(ROOT / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", _PROBE, str(ROOT / "perfbench")],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == []
