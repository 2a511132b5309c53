#!/usr/bin/env python3
"""The benchmark's own tests: every workload at smoke size.

    python3 perfbench/smoke_test.py

Run from the root of a checkout (the first run builds, as run.py does). For
each workload of BENCHMARK.json, measured and traced, it checks that run.py
exits 0 and that its last line has exactly the four result keys, that the
metric names and
units are those BENCHMARK.json declares, that the correctness gate passed
with no failures, and that a second run of the same arguments passes the
determinism check. Further tests tamper with a determinism record and
expect the run to report correct = false, check that a record left by other
code (another source hash) is ignored and a fresh one written, check that
the source hash follows the sources, and run the benchmark in a directory
holding only BENCHMARK.json and perfbench/, where it must fail without
printing a result.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
import run as run_py  # noqa: E402
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = ROOT / ".bench_build" / "perfbench" / "determinism"
SEED = 7
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, seed=SEED):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=900, cwd=ROOT)
    if done.returncode != 0:
        raise AssertionError("run.py failed:\n" + done.stderr[-2000:])
    return json.loads(done.stdout.strip().splitlines()[-1])


def record_path(workload, seed, identity):
    return RECORDS / ("%s-seed%d-s%d-smoke-%s.json"
                      % (workload, seed, SPEC["run_seconds"], identity))


class SmokeTest(unittest.TestCase):
    def check_result(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        units = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, units)
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_every_workload(self):
        for w in WORKLOADS:
            for trace, declared in ((0, SPEC["end_to_end"]),
                                    (1, SPEC["per_layer"])):
                with self.subTest(workload=w, trace=trace):
                    # The second run is checked against the first's record.
                    self.check_result(run(w, trace), declared)
                    self.check_result(run(w, trace), declared)

    def test_determinism_mismatch_fails_the_run(self):
        workload = WORKLOADS[0]
        seed = SEED + 1
        record = record_path(workload, seed, run_py.code_identity())
        record.unlink(missing_ok=True)
        try:
            self.assertTrue(run(workload, 0, seed)["correct"])
            data = json.loads(record.read_text())
            data["counts"]["questions"] += 1
            record.write_text(json.dumps(data))
            self.assertFalse(run(workload, 0, seed)["correct"])
        finally:
            record.unlink(missing_ok=True)

    def test_other_code_starts_a_fresh_record(self):
        # What a run of other code (say, the parent commit) leaves behind
        # for the same arguments must not be compared against.
        workload = WORKLOADS[0]
        seed = SEED + 2
        stale = record_path(workload, seed, "0" * 16)
        record = record_path(workload, seed, run_py.code_identity())
        record.unlink(missing_ok=True)
        stale.parent.mkdir(parents=True, exist_ok=True)
        stale.write_text(json.dumps({"digests": ["0"],
                                     "counts": {"questions": -1}}))
        try:
            self.assertTrue(run(workload, 0, seed)["correct"])
            self.assertTrue(record.exists())
        finally:
            stale.unlink(missing_ok=True)
            record.unlink(missing_ok=True)

    def test_code_identity_follows_the_sources(self):
        copy = ROOT / ".bench_build" / "identity"
        shutil.rmtree(copy, ignore_errors=True)
        try:
            for top in ("src", "perfbench"):
                shutil.copytree(ROOT / top, copy / top,
                                ignore=shutil.ignore_patterns("__pycache__"))
            self.assertEqual(run_py.code_identity(copy),
                             run_py.code_identity())
            with open(copy / "src" / "CMakeLists.txt", "a") as f:
                f.write("\n")
            self.assertNotEqual(run_py.code_identity(copy),
                                run_py.code_identity())
        finally:
            shutil.rmtree(copy, ignore_errors=True)

    def test_fails_without_the_sources(self):
        bare = ROOT / ".bench_build" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 WORKLOADS[0], "--seed", "1", "--seconds",
                 str(SPEC["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=180, cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
