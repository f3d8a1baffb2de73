#!/usr/bin/env python3
"""Tests of the benchmark itself, on the tiny shape of every workload.

    python3 perfbench/test_bench.py

Each run takes about a second after the first build.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, seed=3):
    command = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
               "--trace", str(trace), "--shape", "tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def digests(stdout):
    for line in stdout.splitlines():
        if "digests(open,steps):" in line:
            return line.split("digests(open,steps):")[1].split()
    return None


class BenchmarkTest(unittest.TestCase):
    def check_result(self, proc, trace):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0, proc.stderr)
        self.assertGreaterEqual(result["attempted"], 1)
        spec = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec})
        for metric in spec:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float))
            if not trace:
                self.assertGreater(got["value"], 0, metric["name"])
        return result

    def test_every_workload_traced_and_untraced(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result = self.check_result(run_bench(workload, trace),
                                               trace)
                    if trace:
                        # ScheduleStats is filled only by the stateless
                        # partitioner; sessions publish -1 (unavailable).
                        tasks = result["metrics"]["sched.tasks"]["value"]
                        if workload == "cold-partition":
                            self.assertGreater(tasks, 0)
                        else:
                            self.assertEqual(tasks, -1)
                    if trace and workload == "stream-adapt":
                        # Coalescing and both store paths of ApplyDelta run.
                        for name in ("stream.events_coalesced",
                                     "stream.apply_update_ms",
                                     "stream.apply_reslice_ms"):
                            self.assertGreater(
                                result["metrics"][name]["value"], 0, name)

    def test_multiprocess_matches_in_process(self):
        in_process = run_bench("elastic-rescale", 0)
        multiprocess = run_bench("elastic-rescale-mp", 0)
        self.check_result(in_process, 0)
        self.check_result(multiprocess, 0)
        self.assertIsNotNone(digests(in_process.stdout))
        self.assertEqual(digests(in_process.stdout),
                         digests(multiprocess.stdout))

    def test_fails_without_sources(self):
        lonely = ROOT / ".bench_build" / "test-no-sources"
        shutil.rmtree(lonely, ignore_errors=True)
        lonely.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", lonely)
            shutil.copytree(ROOT / "perfbench", lonely / "perfbench")
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "cold-partition", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=lonely, capture_output=True, text=True, timeout=60,
                env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(lonely, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
