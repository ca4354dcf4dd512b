"""Regenerate the reference outputs and tolerances in ``perfbench/refs``.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/make_refs.py

For every workload and input variant it runs the full-size commands in
this process and stores their CSVs.  For the lab-frame workloads it then
reruns the default variant (0) with the lab-frame step halved and sets each
column's tolerance to ``TOL_FACTOR`` times the relative deviation between
the two step sizes, but at least ``TOL_FLOOR``.  The held-out variant (1),
where the workload has one, is rerun the same way and must fall within the
tolerance derived on variant 0.

A second-order integrator's error at step dt is about 4/3 of the dt vs
dt/2 difference, so the factor of 4 admits a replacement integrator of the
same order with about three times the reference's error constant.  The
floor admits last-digit changes of the 12-significant-digit CSV format.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import refcheck  # noqa: E402
import workloads  # noqa: E402

TOL_FACTOR = 4.0
TOL_FLOOR = 1e-10
LAB_WORKLOADS = ("lab_kernel", "lab_sweep")


def run_commands(commands, size_label: str, dt_scale: float = 1.0) -> dict:
    """Run CLI commands in this process; returns the reference document."""
    import qslsense.cli as cli
    from qslsense import labframe

    default_timestep = labframe.default_timestep
    if dt_scale != 1.0:
        labframe.default_timestep = (lambda model, stim=None, factor=100.0:
                                     default_timestep(model, stim, factor / dt_scale))
    files, outputs = {}, {}
    saved_outdir = os.environ.get(cli.OUTDIR_ENV)
    try:
        with tempfile.TemporaryDirectory() as outdir:
            os.environ[cli.OUTDIR_ENV] = outdir
            for argv in commands:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(list(argv))
                if rc != 0:
                    raise SystemExit(f"{argv} exited with code {rc} ({size_label})")
                name = workloads.command_name(argv)
                outputs[name] = []
                if name == "check":
                    continue
                for line in buf.getvalue().splitlines():
                    path = Path(line.strip())
                    files[path.name] = path.read_text()
                    outputs[name].append(path.name)
    finally:
        labframe.default_timestep = default_timestep
        if saved_outdir is None:
            os.environ.pop(cli.OUTDIR_ENV, None)
        else:
            os.environ[cli.OUTDIR_ENV] = saved_outdir
    return {"commands": commands, "files": files, "outputs": outputs}


def half_step_devs(doc: dict, half: dict) -> dict:
    return {name: refcheck.column_devs(half["files"][name], text)
            for name, text in doc["files"].items()}


def build_refs(refs_dir: Path, size: str = "full", sha: str | None = None) -> None:
    """Write every workload's reference outputs and the tolerances to ``refs_dir``."""
    refs_dir.mkdir(exist_ok=True)
    tolerance = {"reference_commit": sha, "factor": TOL_FACTOR, "floor": TOL_FLOOR,
                 "derived_from_variant": 0, "held_out_variant": 1,
                 "held_out_half_step_devs": {}, "workloads": {}}
    for workload in workloads.WORKLOADS:
        docs = []
        for variant in range(workloads.variants(workload)):
            doc = run_commands(workloads.commands(workload, variant, size),
                               f"{workload} v{variant}")
            doc["reference_commit"] = sha
            refcheck.save_refs(refs_dir, workload, variant, doc)
            docs.append(doc)
            print(f"{workload} v{variant}: {sorted(doc['files'])}")
        if workload not in LAB_WORKLOADS:
            continue
        devs = half_step_devs(docs[0], run_commands(docs[0]["commands"], "dt/2", 0.5))
        tol = {name: {col: max(TOL_FACTOR * d, TOL_FLOOR) for col, d in cols.items()}
               for name, cols in devs.items()}
        tolerance["workloads"][workload] = tol
        print(f"{workload} dt vs dt/2 deviation: {devs}")
        if len(docs) > 1:
            held = half_step_devs(docs[1], run_commands(docs[1]["commands"], "dt/2", 0.5))
            tolerance["held_out_half_step_devs"][workload] = held
            over = [(n, c) for n, cols in held.items() for c, d in cols.items()
                    if d > tol[n][c]]
            if over:
                raise SystemExit(f"{workload}: held-out variant exceeds tolerance in {over}")
    (refs_dir / refcheck.TOLERANCE_FILE).write_text(
        json.dumps(tolerance, indent=1, sort_keys=True) + "\n")


def main() -> int:
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True).stdout.strip() or None
    build_refs(HERE / "refs", sha=sha)
    return 0


if __name__ == "__main__":
    sys.exit(main())
