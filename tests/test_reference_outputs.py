"""Every benchmark workload's CSVs still match the benchmark's reference outputs.

Runs the command lines of every input variant of every workload in
``perfbench/workloads.py`` in this process and checks each CSV with
``perfbench/refcheck.py`` against ``perfbench/refs``: byte for byte where the
references hold no tolerance (the rotating-frame and closed-form workload),
within ``refs/tolerance.json`` for the lab-frame ones.  perfbench is only
read.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from qslsense import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import refcheck  # noqa: E402
import workloads  # noqa: E402

CASES = [(w, v) for w in workloads.WORKLOADS for v in range(workloads.variants(w))]


@pytest.mark.parametrize("workload, variant", CASES, ids=[f"{w}-v{v}" for w, v in CASES])
def test_outputs_match_references(workload, variant, tmp_path, monkeypatch):
    refs = refcheck.load_refs(PERFBENCH / "refs", workload, variant)
    tol = refcheck.load_tolerance(PERFBENCH / "refs", workload)
    commands = workloads.commands(workload, variant, "full")
    assert refs["commands"] == commands
    monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(argv)) == 0, argv
        for fname in refs["outputs"][workloads.command_name(argv)]:
            text = (tmp_path / fname).read_text()
            ok, _, why = refcheck.check_file(text, refs["files"][fname],
                                             None if tol is None else tol[fname])
            assert ok, f"{' '.join(argv)}: {fname} {why}"
