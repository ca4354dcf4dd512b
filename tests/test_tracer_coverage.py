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
    # one call: 10 delays at each of the 3 nonzero frequencies, then the DC
    # stimulus and a run without one
    code, stats = run_traced(
        'code = qslsense.cli.main(["bode", "--rabi", "10MHz", "--alpha", "90deg",'
        ' "--points", "4", "--out", sys.argv[2]])\n'
        'print(json.dumps([code, tracer.report()["response.RotatingFrameRunner.run_batch"]]))',
        str(tmp_path / "bode.csv"))
    assert code == 0
    assert (stats["calls"], stats["runs"]) == (1, 32)


def test_rotating_kernel_is_one_traced_run_batch_call(tmp_path):
    # one call: the 5 probes and the zero-amplitude reference probe, then the
    # DC stimulus and a run without one
    code, stats = run_traced(
        'code = qslsense.cli.main(["kernel", "--rabi", "10MHz", "--alpha", "90deg",'
        ' "--points", "5", "--out", sys.argv[2]])\n'
        'print(json.dumps([code, tracer.report()["response.RotatingFrameRunner.run_batch"]]))',
        str(tmp_path / "kernel.csv"))
    assert code == 0
    assert (stats["calls"], stats["runs"]) == (1, 8)


def test_fig3b_is_one_traced_run_batch_call(tmp_path):
    # one call for the four flip angles: each angle's 5 probes and its
    # reference probe, then its DC stimulus and a run without one
    code, stats = run_traced(
        'code = qslsense.cli.main(["fig3b", "--rabi", "10MHz", "--points", "5",'
        ' "--out", sys.argv[2]])\n'
        'print(json.dumps([code, tracer.report()["response.RotatingFrameRunner.run_batch"]]))',
        str(tmp_path / "fig3b.csv"))
    assert code == 0
    assert (stats["calls"], stats["runs"]) == (1, 4 * (5 + 3))


def test_check_propagates_its_oracle_grid_in_one_call():
    # the 512-point grid is one batched sequence of two segments; the closed
    # form is still evaluated point by point
    code, report = run_traced(
        'code = qslsense.cli.main(["--check"])\n'
        'print(json.dumps([code, tracer.report()]))')
    assert code == 0
    assert report["sequence.transition_probability"]["calls"] == 1
    assert report["spinlin.matexp_antihermitian"]["calls"] == 2
    assert report["response.RotatingFrameRunner.run_batch"]["calls"] == 0


def test_offaxis_runs_only_the_dc_pairs(tmp_path):
    # the delayed sinusoids are the adjoint's linear response, so each tilt
    # runs only its DC pair; the 7 frequencies (1 + 1 + 1 plus the 4 near
    # the Larmor frequency at 45 deg) are still sine-fitted
    code, report = run_traced(
        'code = qslsense.cli.main(["offaxis", "--points", "1", "--out", sys.argv[2]])\n'
        'print(json.dumps([code, tracer.report()]))',
        str(tmp_path / "offaxis.csv"))
    assert code == 0
    batch = report["labframe.run_protocol_batch"]
    assert (batch["calls"], batch["runs"]) == (3, 6)
    assert report["response.fit_sine_amplitude"]["calls"] == 7
    assert report["response.RotatingFrameRunner.run_batch"]["calls"] == 0
