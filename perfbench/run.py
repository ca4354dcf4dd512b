"""qslsense benchmark: end-to-end and per-layer cost of the figure CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload lab_kernel --seed 0 --seconds 35 --trace 0

Each repetition runs the workload's commands (see workloads.py) through
``qslsense.cli.main`` in a fresh worker process, one worker at a time, with
BLAS and OpenMP pinned to one thread.  Repetitions run until ``--seconds``
have passed.  Every output CSV is checked against the reference outputs in
``refs/`` (see refcheck.py).  Set-up time is the import of ``qslsense`` in
each worker, a fresh interpreter.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics from the
traced ones (see layers.py), plus the tracing overhead.  Both print the run
manifest and a table of every metric they measured, then, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``wall_rel`` and ``cpu_rel`` are the workload's wall and CPU time divided
by the median wall and CPU time of chunks of a fixed calibration kernel that
the worker runs right before and right after the workload (see worker.py),
as medians over repetitions.  On a shared host, contention from other tenants slows
single repetitions, and at times whole runs, by up to 60%; the ratio
cancels most of it (README.md gives measured spreads).  The table also
prints the median ``wall_s`` and ``cpu_s`` in seconds, and the manifest
keeps every repetition's times.  Set-up time, memory and the per-layer
metrics are medians over repetitions; counts are per repetition.

The worker's peak memory starts at this process's resident size (Linux
keeps the pre-exec peak of a spawned child), so this module imports neither
numpy nor qslsense.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # inherited by the workers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import refcheck  # noqa: E402
import workloads  # noqa: E402

REFS_DIR = HERE / "refs"
OUT_DIR = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170.0          # a run must end within 180 s

END_TO_END_UNITS = {"wall_rel": "ratio", "cpu_rel": "ratio", "setup_s": "s",
                    "peak_rss_mb": "MB", "pass_ratio": "ratio"}

# Per-layer metrics: (span, fields).  Field units follow FIELD_UNITS.
LAYER_FIELDS = (
    ("labframe.run_protocol_batch", ("calls", "runs", "run_steps", "self_s", "us_per_run_step")),
    ("response.estimate_kernel", ("calls", "self_s")),
    ("response.bode_response", ("calls", "points", "flagged_ratio", "self_s")),
    ("response.fit_sine_amplitude", ("calls", "self_s")),
    ("response.RotatingFrameRunner.run_batch", ("calls", "runs", "self_s", "us_per_run")),
    ("optimize.optimal_duration", ("calls", "self_s")),
    ("optimize.sensitivity_surface", ("self_s",)),
    ("analytic.transfer_value", ("calls", "self_s")),
    ("analytic.exact_transition_probability", ("calls", "self_s")),
    ("sequence.transition_probability", ("calls", "self_s")),
    ("spinlin.matexp_antihermitian", ("calls", "us_per_call")),
    ("cli.write", ("self_s", "bytes")),
)
CLI_COMMANDS = ("check", "kernel", "bode", "fig2", "fig3b", "fig3c", "fig3d", "fig4d",
                "offaxis", "optimal", "metrics", "qsl")
FIELD_UNITS = {"calls": "count", "runs": "count", "run_steps": "count", "points": "count",
               "self_s": "s", "us_per_run_step": "us", "us_per_run": "us",
               "us_per_call": "us", "flagged_ratio": "ratio", "bytes": "B"}
COMPUTED = ("labframe.run_protocol_batch.run_steps",
            "labframe.run_protocol_batch.us_per_run_step")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{span}.{f}": FIELD_UNITS[f] for span, fields in LAYER_FIELDS for f in fields}
    units.update({f"cli.{c}.wall_s": "s" for c in CLI_COMMANDS})
    units.update({"trace.overhead_ratio": "ratio", "check.out_max_rel_dev": "ratio",
                  "check.fail_ratio": "ratio"})
    return units


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_values(report: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, from the tracer's report."""
    out = {}
    for span, fields in LAYER_FIELDS:
        s = report.get(span, {})
        derived = {
            "us_per_run_step": _ratio(s.get("self_s", 0.0), s.get("run_steps", 0), 1e6),
            "us_per_run": _ratio(s.get("self_s", 0.0), s.get("runs", 0), 1e6),
            "us_per_call": _ratio(s.get("self_s", 0.0), s.get("calls", 0), 1e6),
            "flagged_ratio": _ratio(s.get("flagged", 0), s.get("points", 0)),
        }
        for f in fields:
            out[f"{span}.{f}"] = derived[f] if f in derived else s.get(f, 0)
    for c in CLI_COMMANDS:
        out[f"cli.{c}.wall_s"] = report.get(f"cli.{c}", {}).get("total_s", 0.0)
    return out


def run_rep(src: Path, outdir: Path, commands, traced: bool, timeout: float) -> dict:
    """One repetition in a fresh worker; returns its result, or an ``error`` entry."""
    outdir.mkdir()
    job = {"src": str(src), "outdir": str(outdir), "trace": traced, "commands": commands}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return {"error": f"worker exited with code {proc.returncode}: {proc.stderr.strip()}"}


def check_rep(rep: dict, outdir: Path, refs: dict, tol: dict | None):
    """(failed command messages, largest finite relative deviation) of one repetition."""
    failures, worst = [], 0.0
    names = [workloads.command_name(argv) for argv in refs["commands"]]
    if "error" in rep:
        return [f"{n}: {rep['error']}" for n in names], worst
    for name, error in zip(names, rep["errors"]):
        if error:
            failures.append(f"{name}: {error.strip().splitlines()[-1]}")
            continue
        for fname in refs["outputs"][name]:
            path = outdir / fname
            text = path.read_text() if path.is_file() else None
            ok, dev, why = refcheck.check_file(text, refs["files"][fname],
                                               None if tol is None else tol[fname])
            if dev is not None and math.isfinite(dev):
                worst = max(worst, dev)
            if not ok:
                failures.append(f"{name}: {fname} {why}")
                break
    return failures, worst


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "qslsense").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  size: str = "full", refs_dir: Path = REFS_DIR) -> dict:
    """Measure one workload; returns the result object plus ``manifest`` and ``table``."""
    start = time.perf_counter()

    def remaining() -> float:
        return max(1.0, RUN_LIMIT_S - (time.perf_counter() - start))

    src = ROOT / "src"
    variant = workloads.variant_of(workload, seed)
    commands = workloads.commands(workload, variant, size)
    refs = refcheck.load_refs(refs_dir, workload, variant)
    if refs["commands"] != commands:
        raise RuntimeError(f"references in {refs_dir} are for other command lines; "
                           "rerun make_refs.py")
    tol = refcheck.load_tolerance(refs_dir, workload)

    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=OUT_DIR))
    setup, untraced, traced, failures = [], [], [], []
    attempted, worst_dev = 0, 0.0
    deadline = time.perf_counter() + seconds
    try:
        modes = (False, True) if trace else (False,)
        i = 0
        while True:
            mode = modes[i % len(modes)]
            outdir = tmp / f"rep{i}"
            t0 = time.perf_counter()
            rep = run_rep(src, outdir, commands, mode, remaining())
            rep_s = time.perf_counter() - t0
            failed, dev = check_rep(rep, outdir, refs, tol)
            shutil.rmtree(outdir, ignore_errors=True)
            attempted += len(commands)
            failures += failed
            worst_dev = max(worst_dev, dev)
            if "error" not in rep:
                (traced if mode else untraced).append(rep)
                setup.append(rep["import_s"])
            i += 1
            now = time.perf_counter()
            if i >= len(modes) and now >= deadline:
                break
            if now - start + rep_s > RUN_LIMIT_S:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            OUT_DIR.rmdir()
        except OSError:
            pass

    if not untraced or (trace and not traced):
        raise RuntimeError("no repetition completed: " + "; ".join(failures[:3]))

    def rel(reps, key):
        return statistics.median(r[f"{key}_s"] / r[f"calib_{key}_s"] for r in reps)

    end_to_end = {
        "wall_rel": rel(untraced, "wall"),
        "cpu_rel": rel(untraced, "cpu"),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "pass_ratio": 1.0 - len(failures) / attempted,
    }
    layers = {}
    if trace:
        per_rep = [layer_values(r["layers"]) for r in traced]
        layers.update({k: statistics.median(v[k] for v in per_rep) for k in per_rep[0]})
        layers["trace.overhead_ratio"] = rel(traced, "wall") / end_to_end["wall_rel"]
    layers["check.out_max_rel_dev"] = worst_dev
    layers["check.fail_ratio"] = len(failures) / attempted

    units = {**END_TO_END_UNITS, "wall_s": "s", "cpu_s": "s", **per_layer_units()}
    reported = per_layer_units() if trace else END_TO_END_UNITS
    measured = {**end_to_end, "wall_s": statistics.median(r["wall_s"] for r in untraced),
                "cpu_s": statistics.median(r["cpu_s"] for r in untraced), **layers}
    manifest = {
        "workload": workload, "seed": seed, "variant": variant, "size": size,
        "seconds": seconds, "trace": trace, "commands": commands,
        "git_sha": git_sha(), "src_sha256": source_digest(src),
        "python": platform.python_version(), "numpy": untraced[0]["numpy"],
        "qslsense_file": untraced[0]["qslsense_file"],
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV, "setup_samples": setup,
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "rep_wall_s": [r["wall_s"] for r in untraced],
        "rep_cpu_s": [r["cpu_s"] for r in untraced],
        "rep_calib_wall_s": [r["calib_wall_s"] for r in untraced],
        "computed_metrics": list(COMPUTED) if trace else [],
        "missing_spans": traced[0]["missing_spans"] if traced else [],
        "failures": failures[:10],
    }
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": measured[k], "unit": u} for k, u in reported.items()},
        "manifest": manifest,
        "table": {k: (measured[k], units[k]) for k in units if k in measured},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qslsense" / "cli.py").is_file():
        print(f"no qslsense sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print("manifest " + json.dumps(result.pop("manifest")))
    for name, (value, unit) in result.pop("table").items():
        print(f"{name:50s} {value:>16.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
