"""Smoke test of the benchmark at tiny sizes (a few seconds per run).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

For every workload in BENCHMARK.json it checks that a --trace 0 run emits
every end_to_end metric and a --trace 1 run every per_layer metric, each
with its unit, and that no command failed (ops_failed_frac = 0, so the
traced outputs match the frozen digests too).  It also checks that the
benchmark exits non-zero, printing no result, where the spinfock sources
are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root, workload: str, trace: int):
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=180)


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for workload in (w["name"] for w in BENCH["workloads"]):
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench(ROOT, workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(
                        {name: m["unit"] for name, m in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in BENCH[group]})
                    for m in result["metrics"].values():
                        self.assertIn(type(m["value"]), (int, float))

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in BENCH["paths"]:
                shutil.copytree(ROOT / path, Path(tmp) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(tmp, BENCH["workloads"][0]["name"], 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
