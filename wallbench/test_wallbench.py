#!/usr/bin/env python3
"""Tests of the benchmark itself, on short inputs.

    python3 wallbench/test_wallbench.py

Builds both binaries through run.py, then checks that every workload passes
its own output checks, that the traced and untraced binaries and the two
fabric executors reach the same simulated outcome, that span accounting
holds, and that run.py prints the metrics BENCHMARK.json names.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

SEED = 7
# Layer self times plus the bookkeeping moved out of them cover the root
# span; the root opens and closes inside the driver's wall clock, so the
# two differ by a few clock reads.
SPAN_SUM_TOLERANCE = 0.01


def setUpModule():
    if not run.build():
        raise RuntimeError("wallbench build failed")


class Workloads(unittest.TestCase):
    def short(self, workload, traced=False, seed=SEED):
        r = run.rep(traced, workload, seed, "short")
        self.assertIsNotNone(r, workload)
        return r

    def test_short_runs_pass_their_checks(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                r = self.short(w)
                self.assertTrue(r["ok"])
                self.assertGreater(r["attempted"], 0)
                self.assertEqual(r["failed"], 0)
                self.assertGreater(r["packets"], 0)
                for name in run.END_TO_END:
                    self.assertGreater(r[name], 0, name)
                # The slices cover the measured phase.
                self.assertGreater(len(r["slice_wall_s"]), 0)
                self.assertEqual(len(r["slice_wall_s"]), len(r["slice_cpu_s"]))
                self.assertAlmostEqual(sum(r["slice_wall_s"]), r["wall_s"],
                                       delta=1e-3 * r["wall_s"])

    def test_traced_and_untraced_digests_are_identical(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(self.short(w)["digest"],
                                 self.short(w, traced=True)["digest"])

    def test_repetitions_and_executors_agree(self):
        serial = self.short("fabric_serial")
        again = self.short("fabric_serial")
        self.assertEqual(serial["digest"], again["digest"])
        self.assertEqual(len(serial["slice_wall_s"]), len(again["slice_wall_s"]))
        self.assertEqual(serial["digest"], self.short("fabric_par")["digest"])

    def test_best_slices_takes_each_slice_minimum(self):
        reps = [{"s": [3.0, 1.0, 2.0]}, {"s": [1.0, 4.0, 2.5]}]
        self.assertEqual(run.best_slices(reps, "s"), 4.0)

    def test_span_accounting(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                r = self.short(w, traced=True)
                c = r["span_check"]
                self.assertLessEqual(abs(c["main_self_sum_s"] - c["wall_s"]),
                                     SPAN_SUM_TOLERANCE * c["wall_s"])
                self.assertEqual(c["negative_layers"], 0)
                self.assertEqual(c["open"], 0)
                for name, value in r["layers"].items():
                    if name.endswith(".self_ms"):
                        self.assertGreaterEqual(value, 0, name)


class Command(unittest.TestCase):
    def command(self, trace):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        p = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "rr_small", "--seed", str(SEED), "--seconds", "0", "--size",
             "short", "--trace", str(trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        self.assertEqual(p.returncode, 0, p.stdout)
        out = json.loads(p.stdout.strip().splitlines()[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(out["correct"])
        self.assertGreaterEqual(out["attempted"], 1)
        want = spec["per_layer"] if trace else spec["end_to_end"]
        self.assertEqual(set(out["metrics"]), {m["name"] for m in want})
        for m in want:
            self.assertEqual(out["metrics"][m["name"]]["unit"], m["unit"])
        return out

    def test_untraced_run_prints_every_end_to_end_metric(self):
        out = self.command(0)
        for name, m in out["metrics"].items():
            self.assertGreater(m["value"], 0, name)

    def test_traced_run_prints_every_per_layer_metric(self):
        self.command(1)


if __name__ == "__main__":
    unittest.main()
