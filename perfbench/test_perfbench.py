#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the checkout root:

    python3 perfbench/test_perfbench.py

Each test drives perfbench/run.py (building lognic_perf on first use) with
short runs, about four minutes in all. They check that

  - every metric a run prints is named in BENCHMARK.json with its unit,
    and a run prints all of them (end-to-end with --trace 0, per-layer
    with --trace 1);
  - the same seed gives identical inputs, counts and digests;
  - another seed gives other inputs of the same size.
"""
import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# Per-layer counts that are pure functions of the seed (no host time).
DETERMINISTIC_LAYER_METRICS = [
    "core.classes", "core.paths", "io.bytes_in", "check.trials",
    "check.violations", "check.generate_failures", "sim.runs", "sim.events",
    "ckpt.publications", "ckpt.bytes_published", "dse.requests",
    "dse.solves", "dse.frontier_size", "dse.des_validations",
    "dse.frontier_tput_err", "dse.frontier_p99_err",
]

_runs = {}


def run(workload, seed, trace, repeat=0):
    """(info lines, result) of one short run; cached per argument tuple."""
    key = (workload, seed, trace, repeat)
    if key not in _runs:
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if p.returncode != 0:
            raise AssertionError("%s failed (%d): %s" % (key, p.returncode,
                                                         p.stderr[-3000:]))
        lines = p.stdout.strip().splitlines()
        _runs[key] = (lines[:-1], json.loads(lines[-1]))
    return _runs[key]


def tagged(info, tag):
    return [line for line in info if line.startswith("# %s " % tag)]


def sizes(info):
    return [re.findall(r"size=\d+", line) for line in tagged(info, "inputs")]


class MetricsMatchBenchmarkJson(unittest.TestCase):
    def check(self, trace, declared):
        want = {m["name"]: m["unit"] for m in declared}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, result = run(workload, 1, trace)
                self.assertEqual(sorted(result), ["attempted", "correct",
                                                  "failed", "metrics"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                for name, v in result["metrics"].items():
                    self.assertIsInstance(v["value"], (int, float), name)

    def test_end_to_end(self):
        self.check(0, BENCH["end_to_end"])

    def test_per_layer(self):
        self.check(1, BENCH["per_layer"])


class Determinism(unittest.TestCase):
    def test_same_seed_same_inputs_and_digests(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a, _ = run(workload, 1, 0)
                b, _ = run(workload, 1, 0, repeat=1)
                self.assertTrue(tagged(a, "digest"))
                self.assertEqual(tagged(a, "inputs"), tagged(b, "inputs"))
                self.assertEqual(tagged(a, "digest"), tagged(b, "digest"))

    def test_same_seed_same_layer_counts(self):
        # explore_supervised's traced run is the longest; its counts come
        # from the same code as the other two.
        for workload in ("estimate_mix", "check_trials"):
            with self.subTest(workload=workload):
                _, a = run(workload, 1, 1)
                _, b = run(workload, 1, 1, repeat=1)
                for name in DETERMINISTIC_LAYER_METRICS:
                    self.assertEqual(a["metrics"][name]["value"],
                                     b["metrics"][name]["value"], name)

    def test_other_seed_other_inputs_same_size(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a, _ = run(workload, 1, 0)
                b, _ = run(workload, 2, 0)
                self.assertTrue(sizes(a))
                self.assertEqual(sizes(a), sizes(b))
                self.assertNotEqual(tagged(a, "digest"), tagged(b, "digest"))


if __name__ == "__main__":
    unittest.main(verbosity=2)
