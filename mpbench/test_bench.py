#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the simulator).

    python3 mpbench/test_bench.py        # builds on first use, ~4 min

Checks that every printed metric name is well formed and declared in
BENCHMARK.json with the same unit, that each run prints exactly the
declared end-to-end (--trace 0) or per-layer (--trace 1) set, that the
result line parses, that the seed changes the generated inputs, and that
a directory without the simulator sources fails without a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def binary():
    return os.path.join(ROOT, ".bench_build", "mpbench", "mpbench")


class BenchmarkOutput(unittest.TestCase):
    def check_run(self, workload, trace, declared):
        proc = run("--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), set(declared), workload)
        for name, m in metrics.items():
            self.assertRegex(name, NAME_RE)
            self.assertEqual(set(m), {"value", "unit"})
            self.assertEqual(m["unit"], declared[name]["unit"], name)
            self.assertIsInstance(m["value"], (int, float))
        # The human-readable lines name the same metrics and units.
        printed = {}
        for line in lines[:-1]:
            if line.startswith("metric "):
                _, name, _, unit = line.split()
                printed[name] = unit
        self.assertEqual(printed, {k: v["unit"] for k, v in metrics.items()})

    def test_end_to_end_metrics(self):
        declared = {m["name"]: m for m in SPEC["end_to_end"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_run(w, 0, declared)

    def test_per_layer_metrics(self):
        declared = {m["name"]: m for m in SPEC["per_layer"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.check_run(w, 1, declared)


class BenchmarkSpec(unittest.TestCase):
    def test_declarations(self):
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], NAME_RE)
            self.assertIn(m["better"], ("higher", "lower"))
        for m in SPEC["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)


class SeedChangesInputs(unittest.TestCase):
    def inputs(self, workload, seed):
        out = subprocess.run(
            [binary(), "--workload", workload, "--seed", str(seed),
             "--print-inputs"], stdout=subprocess.PIPE, text=True, check=True)
        return out.stdout.split()[-1]

    def test_seed(self):
        run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
            "--trace", "0")  # make sure the binary is built
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(self.inputs(w, 1), self.inputs(w, 1))
                self.assertNotEqual(self.inputs(w, 1), self.inputs(w, 2))


class BareDirectoryFails(unittest.TestCase):
    def test_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(tmp, path))
            proc = subprocess.run(
                [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
