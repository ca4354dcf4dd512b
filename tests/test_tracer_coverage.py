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

_INSTALL = """
import json, sys
sys.path.insert(0, sys.argv[1])
import qslsense
import qslsense.cli
from layers import Tracer

tracer = Tracer()
tracer.install(qslsense)
"""


def run_traced(script: str, *args: str):
    """Install the tracer in a fresh interpreter, run ``script`` and parse its JSON line."""
    src = str(ROOT / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", _INSTALL + script, str(ROOT / "perfbench"),
                          *args],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_tracer_finds_every_timed_layer():
    assert run_traced("print(json.dumps(tracer.missing))") == []


def test_bode_sweep_is_one_traced_run_batch_call(tmp_path):
    # one call of the DC pair plus 10 delays at each of the 3 nonzero frequencies
    code, stats = run_traced(
        'code = qslsense.cli.main(["bode", "--rabi", "10MHz", "--alpha", "90deg",'
        ' "--points", "4", "--out", sys.argv[2]])\n'
        'print(json.dumps([code, tracer.report()["response.RotatingFrameRunner.run_batch"]]))',
        str(tmp_path / "bode.csv"))
    assert code == 0
    assert (stats["calls"], stats["runs"]) == (1, 32)


def test_rotating_kernel_is_one_traced_run_batch_call(tmp_path):
    # one call: the 5 probes with a reference run, then the DC pair
    code, stats = run_traced(
        'code = qslsense.cli.main(["kernel", "--rabi", "10MHz", "--alpha", "90deg",'
        ' "--points", "5", "--out", sys.argv[2]])\n'
        'print(json.dumps([code, tracer.report()["response.RotatingFrameRunner.run_batch"]]))',
        str(tmp_path / "kernel.csv"))
    assert code == 0
    assert (stats["calls"], stats["runs"]) == (1, 8)
