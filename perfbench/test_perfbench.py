#!/usr/bin/env python3
"""The benchmark's own tests: a short-mode run of every workload.

    python3 perfbench/test_perfbench.py        # from the repository root

Each workload runs twice traced and once untraced on small inputs. The
tests check that every metric BENCHMARK.json names is printed with its
unit, that the work counters repeat exactly, and that the output digests
agree across runs. A last test checks that the benchmark refuses to run
in a directory that holds only BENCHMARK.json and perfbench/.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
SEED = 3
# Counters that must repeat exactly between two runs of one seed.
EXACT = re.compile(
    r"^(profile\.\w+_misses|profile\.sketch_merges|detect\.\w+_flags|detect\.union_cells"
    r"|fd\.rules_found|repair\.cells_repaired|delta\.(bytes|files)_per_commit"
    r"|table\.(chunks|resident_bytes))$"
)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace):
    """One short run; returns (exit code, result line, full report)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--short"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    report_path = os.path.join(OUT, f"{workload}-s{SEED}-t{trace}.json")
    with open(report_path) as f:
        report = json.load(f)
    return proc.returncode, result, report


class ShortRuns(unittest.TestCase):
    def check_result(self, code, result, metrics):
        self.assertEqual(code, 0)
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in metrics}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for v in result["metrics"].values():
            self.assertIsInstance(v["value"], (int, float))

    def test_workloads(self):
        for name in [w["name"] for w in SPEC["workloads"]]:
            with self.subTest(workload=name):
                code, plain, plain_report = run(name, 0)
                self.check_result(code, plain, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(plain["metrics"][m["name"]]["value"], 0, m["name"])
                code, first, first_report = run(name, 1)
                self.check_result(code, first, SPEC["per_layer"])
                code, second, second_report = run(name, 1)
                self.check_result(code, second, SPEC["per_layer"])
                for metric, v in first["metrics"].items():
                    if EXACT.match(metric):
                        self.assertEqual(v["value"], second["metrics"][metric]["value"], metric)
                self.assertTrue(first_report["digests"])
                self.assertEqual(first_report["digests"], second_report["digests"])
                self.assertEqual(first_report["digests"], plain_report["digests"])
                env = plain_report["environment"]
                for key in ("nproc", "build_profile", "git_revision", "seed", "seconds"):
                    self.assertIn(key, env)

    def test_refuses_without_the_program(self):
        bare = os.path.join(OUT, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "target", "__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
        proc = subprocess.run(
            SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, env=env,
        )
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
