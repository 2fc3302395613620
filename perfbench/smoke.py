"""Smoke tests for the benchmark itself, at a tiny run length.

Run from the repository root (about a minute)::

    python3 perfbench/smoke.py
    python3 -m pytest perfbench/smoke.py    # the same tests under pytest
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from serve_bench import ServeBench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int, seconds: str = "1"):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return out


class MetricsEmitted(unittest.TestCase):
    """Every named metric is printed, with its unit, on every workload."""

    def check(self, trace: int) -> None:
        wanted = {m["name"]: m["unit"]
                  for m in SPEC["per_layer" if trace else "end_to_end"]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload, trace=trace):
                out = _bench(workload, trace)
                self.assertEqual(out.returncode, 0, out.stderr)
                result = json.loads(out.stdout.strip().splitlines()[-1])
                self.assertEqual(
                    set(result), {"correct", "attempted", "failed",
                                  "metrics"})
                self.assertTrue(result["correct"], out.stderr)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {name: m["unit"]
                       for name, m in result["metrics"].items()}
                self.assertEqual(got, wanted)
                for name, m in result["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)

    def test_end_to_end(self) -> None:
        self.check(0)

    def test_per_layer(self) -> None:
        self.check(1)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_specs_and_script(self) -> None:
        for make in workloads.IN_PROCESS_OPS.values():
            self.assertEqual(make(7), make(7))
            self.assertEqual([op.build() for op in make(7)],
                             [op.build() for op in make(7)])
        self.assertEqual(list(islice(workloads.serve_cycles(7), 5)),
                         list(islice(workloads.serve_cycles(7), 5)))

    def test_other_seed_changes_spec_seeds(self) -> None:
        for make in workloads.IN_PROCESS_OPS.values():
            seeds_a = [op.build().seed for op in make(7)]
            seeds_b = [op.build().seed for op in make(8)]
            self.assertTrue(all(a != b for a, b in zip(seeds_a, seeds_b)))
        script_a = [r.body for r in next(workloads.serve_cycles(7))]
        script_b = [r.body for r in next(workloads.serve_cycles(8))]
        self.assertNotEqual(script_a, script_b)

    def test_script_shape(self) -> None:
        seen = set()
        for cycle in islice(workloads.serve_cycles(7), 6):
            miss, *hits = cycle
            self.assertFalse(miss.hit)
            self.assertNotIn(miss.key, seen)
            seen.add(miss.key)
            self.assertEqual(len(hits), workloads.SERVE_HITS_PER_MISS)
            for hit in hits:
                self.assertTrue(hit.hit)
                self.assertIn(hit.key, seen)


class ServeHits(unittest.TestCase):
    def test_hit_count_matches_script(self) -> None:
        bench = ServeBench(5, ROOT, ROOT / "src")
        res = bench.run(0.5, trace=False)
        records = res["records"]
        self.assertTrue(records)
        self.assertTrue(all(r["ok"] for r in records))
        self.assertEqual(res["run_failures"], [])
        # The discarded warm-up cycle's hits are counted by the server too.
        scripted = (sum(r["hit"] for r in records)
                    + workloads.SERVE_HITS_PER_MISS)
        self.assertEqual(res["stats"]["hits"], scripted)


class NoSources(unittest.TestCase):
    def test_fails_without_a_result(self) -> None:
        work = ROOT / ".perfbench-work"
        work.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "cell-mix", "--seed", "1", "--seconds", "1", "--trace",
                 "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        try:
            work.rmdir()
        except OSError:
            pass  # a concurrent run's work directory is still there
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
