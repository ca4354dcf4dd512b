"""One benchmark repetition in a fresh interpreter.

Usage: ``python3 worker.py JOB_JSON`` where the job holds ``src`` (the
directory that contains the ``qslsense`` package), ``outdir`` (where the
commands write their CSVs), ``trace`` (install the per-layer tracer) and
``commands`` (CLI argument lists).  The worker imports the package, then
calls ``qslsense.cli.main`` once per command and prints one JSON line: the
import time, wall and CPU seconds of the commands (import excluded), the
median wall and CPU seconds of calibration-kernel chunks run just before and
just after them, peak resident memory (the calibration kernel adds about 1 MB to
it), each command's error (None if it exited 0) and the tracer's report.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

CALIB_CHUNKS = 4  # calibration chunks before and after the workload, about 25 ms each


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def calibrate() -> tuple[float, float]:
    """(wall, CPU) seconds of one chunk of a fixed kernel that imitates the package's work.

    Batched 3x3 ``eigh`` and propagator products (the lab frame), small
    elementwise complex arithmetic (the rotating frame) and a scalar Python
    loop (the closed forms and optimizers), without calling the package.
    Timed next to the workload, it measures how fast the shared host runs
    at that moment.
    """
    import numpy as np

    h = np.sin(np.arange(32 * 9).reshape(32, 3, 3)) * (1.0 + 0.5j)
    h = h + np.conj(np.swapaxes(h, 1, 2))
    psi = np.ones((32, 3), dtype=complex)
    z = np.ones(64, dtype=complex)
    cpu0, t0 = _cpu_s(), time.perf_counter()
    for _ in range(150):
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(-0.1j * w)[:, None, :]) @ np.swapaxes(v, 1, 2)
        psi = np.einsum("kij,kj->ki", u, psi)
        for _ in range(10):
            z = np.exp(-0.1j * np.abs(z)) * z
        acc = 0.0
        for k in range(300):
            acc += math.sin(0.01 * k)
    return time.perf_counter() - t0, _cpu_s() - cpu0


def main() -> int:
    job = json.loads(sys.argv[1])
    src = os.path.abspath(job["src"])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import qslsense
    import_s = time.perf_counter() - t0
    import numpy
    import qslsense.cli as cli

    if not os.path.abspath(qslsense.__file__).startswith(src + os.sep):
        print(f"qslsense imported from {qslsense.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if job["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from layers import Tracer
        tracer = Tracer()
        tracer.install(qslsense)
    os.environ["QSLSENSE_OUTDIR"] = job["outdir"]

    errors = []
    calib = [calibrate() for _ in range(CALIB_CHUNKS)]
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for argv in job["commands"]:
        err = io.StringIO()
        error = None
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = cli.main(list(argv))
            if rc != 0:
                error = f"exit code {rc}: {err.getvalue().strip()}"
        except (Exception, SystemExit):  # a crashed command is a failed command
            error = traceback.format_exc()
        errors.append(error)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    calib += [calibrate() for _ in range(CALIB_CHUNKS)]
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    print(json.dumps({
        "import_s": import_s, "wall_s": wall_s, "cpu_s": cpu_s, "peak_rss_mb": peak_kb / 1024.0,
        "calib_wall_s": statistics.median(c[0] for c in calib),
        "calib_cpu_s": statistics.median(c[1] for c in calib),
        "errors": errors, "numpy": numpy.__version__, "qslsense_file": qslsense.__file__,
        "layers": tracer.report() if tracer else None,
        "missing_spans": tracer.missing if tracer else [],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
