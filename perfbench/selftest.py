"""Self-tests of the benchmark, at tiny sizes.

Run from the repository root:

    python3 perfbench/selftest.py

The tests build tiny reference outputs in a scratch directory, run every
workload with tracing off and on, and check that each metric named in
``BENCHMARK.json`` is printed with its unit, that the traced counters are
non-zero on the workloads that exercise a layer and zero on those that
bypass it, and that the output check and the missing-source exit work.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import make_refs  # noqa: E402
import refcheck  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

LAB = ("lab_kernel", "lab_sweep")
# Per-layer counter -> workloads that must exercise it; it must read zero on the rest.
EXERCISED_BY = {
    "labframe.run_protocol_batch.calls": LAB,
    "labframe.run_protocol_batch.run_steps": LAB,
    "response.estimate_kernel.calls": ("lab_kernel", "rotating_analytic"),
    "response.bode_response.calls": ("lab_sweep", "rotating_analytic"),
    "response.bode_response.points": ("lab_sweep", "rotating_analytic"),
    "response.fit_sine_amplitude.calls": ("lab_sweep", "rotating_analytic"),
    "response.RotatingFrameRunner.run_batch.calls": ("rotating_analytic",),
    "optimize.optimal_duration.calls": ("rotating_analytic",),
    "analytic.transfer_value.calls": ("rotating_analytic",),
    "analytic.exact_transition_probability.calls": ("rotating_analytic",),
    "sequence.transition_probability.calls": ("rotating_analytic",),
    "spinlin.matexp_antihermitian.calls": ("rotating_analytic",),
    "cli.write.bytes": workloads.WORKLOADS,
}


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.scratch = Path(tempfile.mkdtemp(prefix=".perfbench_selftest", dir=ROOT))
        cls.refs = cls.scratch / "refs"
        make_refs.build_refs(cls.refs, size="tiny")
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.results = {(w, trace): run.run_benchmark(w, 0, 0.1, trace, size="tiny",
                                                     refs_dir=cls.refs)
                       for w in workloads.WORKLOADS for trace in (False, True)}

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.scratch, ignore_errors=True)

    def _assert_metrics(self, result, specs):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for m in specs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_spec_matches_reported_metrics(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]},
                         run.per_layer_units())
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(workloads.WORKLOADS))

    def test_smoke_every_metric_with_unit(self):
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w):
                plain, traced = self.results[(w, False)], self.results[(w, True)]
                for result in (plain, traced):
                    self.assertTrue(result["correct"], result["manifest"]["failures"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                self._assert_metrics(plain, self.spec["end_to_end"])
                self._assert_metrics(traced, self.spec["per_layer"])
                for name, m in plain["metrics"].items():
                    self.assertGreater(m["value"], 0.0, name)
                self.assertGreater(traced["metrics"]["trace.overhead_ratio"]["value"], 0.0)
                self.assertEqual(traced["metrics"]["check.fail_ratio"]["value"], 0.0)
                self.assertEqual(traced["metrics"]["check.out_max_rel_dev"]["value"], 0.0)
                self.assertEqual(plain["manifest"]["commands"],
                                 workloads.commands(w, 0, "tiny"))

    def test_layer_counters_follow_workloads(self):
        for w in workloads.WORKLOADS:
            values = {k: m["value"] for k, m in self.results[(w, True)]["metrics"].items()}
            for name, exercised in EXERCISED_BY.items():
                with self.subTest(workload=w, metric=name):
                    if w in exercised:
                        self.assertGreater(values[name], 0)
                    else:
                        self.assertEqual(values[name], 0)
            ran = {workloads.command_name(a) for a in workloads.commands(w, 0, "tiny")}
            for c in run.CLI_COMMANDS:
                with self.subTest(workload=w, command=c):
                    wall = values[f"cli.{c}.wall_s"]
                    self.assertTrue(wall > 0 if c in ran else wall == 0)

    def test_output_check_rejects_changes(self):
        ref = "t_s,k_norm\n1,0.5\n2,-1\n"
        tol = {"t_s": 0.0, "k_norm": 1e-3}
        self.assertEqual(refcheck.check_file(ref, ref, None), (True, 0.0, ""))
        ok, dev, _ = refcheck.check_file("t_s,k_norm\n1,0.5004\n2,-1\n", ref, tol)
        self.assertTrue(ok)
        self.assertAlmostEqual(dev, 4e-4)
        self.assertFalse(refcheck.check_file("t_s,k_norm\n1,0.502\n2,-1\n", ref, tol)[0])
        self.assertFalse(refcheck.check_file("t_s,k_norm\n1,0.5004\n2,-1\n", ref, None)[0])
        self.assertFalse(refcheck.check_file("t_s,k_norm\n1,0.5\n", ref, tol)[0])
        self.assertFalse(refcheck.check_file(None, ref, tol)[0])

    def test_fails_without_sources(self):
        bare = self.scratch / "bare"
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "lab_kernel", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
