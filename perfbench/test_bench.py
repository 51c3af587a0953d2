#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the simulator).

    python3 perfbench/test_bench.py

- long rodinia run: more operations than the 64 MiB of VRAM survives
  without the benchmark's leak guard, with zero failed operations;
- determinism guard, per workload: the identity window's virtual time
  and output digest are equal across two untraced runs and the traced
  run, and for the listed workloads a held-out seed runs with zero
  failed operations;
- the metric names printed match BENCHMARK.json;
- in a directory holding only BENCHMARK.json and perfbench/, the
  benchmark exits non-zero without printing a result.

Each run is short: the runner always completes its identity window,
so --seconds 1 still runs thousands of operations.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
HELD_OUT_SEED = 90210


def run(workload, seed, trace=0, seconds=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600)
    return proc


def parsed(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class LongRun(unittest.TestCase):
    def test_rodinia_outlives_vram_without_failures(self):
        detail, result = parsed(run("rodinia", SEED))
        # ~1.1k runRodinia calls exhaust VRAM when buffers leak.
        self.assertGreaterEqual(result["attempted"], 2000)
        self.assertEqual(result["failed"], 0, detail["error"])
        self.assertTrue(result["correct"])


class Determinism(unittest.TestCase):
    def check(self, workload, clean=True):
        runs = [parsed(run(workload, SEED, trace=t)) for t in (0, 0, 1)]
        for detail, result in runs:
            if clean:
                self.assertEqual(result["failed"], 0, detail["error"])
                self.assertTrue(result["correct"])
        windows = {(d["window_virtual_ns"], d["window_digest"])
                   for d, _ in runs}
        self.assertEqual(len(windows), 1, windows)
        virtual_ms = {r["metrics"]["virtual_ms"]["value"]
                      for _, r in runs[:2]}
        self.assertEqual(len(virtual_ms), 1)
        detail, result = parsed(run(workload, HELD_OUT_SEED))
        if clean:
            self.assertEqual(result["failed"], 0, detail["error"])
            self.assertTrue(result["correct"])
        self.assertNotEqual(detail["window_digest"],
                            runs[0][0]["window_digest"])

    def test_rodinia(self):
        self.check("rodinia")

    def test_failover(self):
        self.check("failover")

    def test_fleet(self):
        self.check("fleet")

    def test_fuzz(self):
        # Determinism only: about one generated scenario in 500-1000
        # fails the isolation oracle (a simulator defect, see
        # perfbench/README.md), so a clean run depends on the seed.
        self.check("fuzz", clean=False)


class Contract(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        s = spec()
        # fuzz is runnable but not listed: see perfbench/README.md.
        self.assertEqual([w["name"] for w in s["workloads"]],
                         ["rodinia", "failover", "fleet"])
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            detail, result = parsed(run("fleet", SEED, trace=trace))
            want = {m["name"]: m["unit"] for m in s[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, want)
            if trace == 0:
                # Host times are the raw figures at nominal host speed.
                speed = detail["host_speed"]
                self.assertGreater(speed["samples"], 5)
                m = result["metrics"]
                self.assertAlmostEqual(
                    m["op_p50_ms"]["value"] * speed["slowness"],
                    speed["raw"]["op_p50_ms"])
                self.assertAlmostEqual(
                    m["ops_per_s"]["value"] / speed["slowness"],
                    speed["raw"]["ops_per_s"])
            self.assertEqual(detail["env"],
                             {"backend": "tz", "tlb": True,
                              "modstore": True, "parallel_workers": 0,
                              "cronus_trace": False})

    def test_fails_without_simulator_sources(self):
        base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        if not os.path.isabs(base):
            base = os.path.join(ROOT, base)
        bare = os.path.join(base, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fleet",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=170)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
