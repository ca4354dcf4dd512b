"""Reference outputs and the output check.

``refs/<workload>-v<variant>.json.gz`` holds the CSVs that the reference
commit of ``qslsense`` wrote for one input variant, together with the
command lines and which files each command wrote.  ``refs/tolerance.json``
holds, per lab-frame workload, file and column, the largest relative
deviation a run may show; workloads without an entry must match byte for
byte.  Both are written by ``make_refs.py``.

A cell's relative deviation is its absolute difference from the reference
divided by the largest absolute value in that column of the reference (or
by 1 where that column is all zeros).
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

TOLERANCE_FILE = "tolerance.json"


def ref_path(refs_dir: Path, workload: str, variant: int) -> Path:
    return Path(refs_dir) / f"{workload}-v{variant}.json.gz"


def load_refs(refs_dir: Path, workload: str, variant: int) -> dict:
    with gzip.open(ref_path(refs_dir, workload, variant), "rt") as fh:
        return json.load(fh)


def save_refs(refs_dir: Path, workload: str, variant: int, doc: dict) -> None:
    data = json.dumps(doc, indent=1, sort_keys=True).encode()
    ref_path(refs_dir, workload, variant).write_bytes(gzip.compress(data, mtime=0))


def load_tolerance(refs_dir: Path, workload: str) -> dict | None:
    """Per-file, per-column tolerance of ``workload``; None means byte-exact."""
    doc = json.loads((Path(refs_dir) / TOLERANCE_FILE).read_text())
    return doc["workloads"].get(workload)


def _parse(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in text.splitlines() if ln]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def column_devs(text: str, ref_text: str) -> dict[str, float] | None:
    """Largest relative deviation per column, or None if the tables' shapes differ."""
    if not text.strip():
        return None
    header, rows = _parse(text)
    ref_header, ref_rows = _parse(ref_text)
    if header != ref_header or len(rows) != len(ref_rows) or any(
            len(r) != len(header) for r in rows):
        return None
    devs = {}
    for j, col in enumerate(header):
        got = [r[j] for r in rows]
        want = [r[j] for r in ref_rows]
        if got == want:
            devs[col] = 0.0
            continue
        try:
            pairs = [(float(a), float(b)) for a, b in zip(got, want)]
        except ValueError:
            devs[col] = math.inf
            continue
        scale = max(abs(b) for _, b in pairs) or 1.0
        diff = max(abs(a - b) for a, b in pairs)
        devs[col] = diff / scale if math.isfinite(diff) else math.inf
    return devs


def check_file(text: str | None, ref_text: str, tol: dict[str, float] | None):
    """(passed, largest relative deviation, reason) for one output file.

    ``tol`` None demands identical bytes; otherwise every column's deviation
    must stay within its tolerance.
    """
    if text is None:
        return False, None, "missing"
    if text == ref_text:
        return True, 0.0, ""
    devs = column_devs(text, ref_text)
    if devs is None:
        return False, None, "header or row count differs from the reference"
    worst = max(devs.values())
    if tol is None:
        return False, worst, f"bytes differ (max relative deviation {worst:.3g})"
    over = [c for c, d in devs.items() if d > tol.get(c, 0.0)]
    if over:
        return False, worst, "outside tolerance in " + ", ".join(
            f"{c} ({devs[c]:.3g} > {tol.get(c, 0.0):.3g})" for c in over)
    return True, worst, ""
