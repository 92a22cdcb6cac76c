#!/usr/bin/env python3
"""Self-checks for the workload benchmark: the output checks must pass on
the real outputs and fail on outputs moved by one ulp, and the benchmark
must refuse to run without the library sources.

    python3 perfbench/test_run.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench(*args, cwd=ROOT):
    """Runs the benchmark as BENCHMARK.json's command, from `cwd`."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


class OutputChecks(unittest.TestCase):
    def test_real_outputs_pass(self):
        for workload in ("figs_15min", "churn_10s", "trace_10s"):
            with self.subTest(workload=workload):
                code, result = bench("--workload", workload, "--seed", "1",
                                     "--seconds", "1", "--trace", "0")
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)

    def test_one_ulp_fails_untraced_run(self):
        for workload in ("figs_15min", "churn_10s"):
            with self.subTest(workload=workload):
                code, result = bench("--workload", workload, "--seed", "1",
                                     "--seconds", "1", "--trace", "0",
                                     "--perturb")
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_one_ulp_fails_traced_run_on_held_out_seed(self):
        code, result = bench("--workload", "trace_10s", "--seed", "2",
                             "--seconds", "1", "--trace", "1", "--perturb")
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["metrics"]["failed_frac"]["value"], 0.0)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, result = bench("--workload", "churn_10s", "--seed", "1",
                                 "--seconds", "1", "--trace", "0", cwd=tmp)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
