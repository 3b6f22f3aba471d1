#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, at smoke size.

    python3 bench_e2e/selftest.py

Builds the benchmark (as run.py does), then runs every workload untraced
and traced on tiny corpora and checks that:
  * the last stdout line is the result object, every check passed and at
    least one operation was attempted;
  * every metric BENCHMARK.json names is present, with its unit, and no
    other metric is;
  * in a traced run the workload's rows, unattributed_s and
    trace_overhead_s add up to traced_total_s;
  * on e1_analyze the open, mine, group, finalize, render and teardown
    rows are all non-zero.
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
# Every workload run.py knows, including rm_heavy, which BENCHMARK.json
# does not gate.
from run import WORKLOADS  # noqa: E402

# The rows each workload's operation is made of (see NOTES.md).
BATCH_ROWS = ["logging.open_s", "miner.mine_s", "grouping.group_s",
              "finalize.finalize_s", "export.render_s", "export.write_s",
              "teardown_s"]
FOLLOW_ROWS = ["follow.poll_s", "follow.snapshot_s", "follow.render_s",
               "follow.publish_s", "follow.drain_s"]


def run(workload, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace),
               "--smoke"]
    out = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(command)} exited {out.returncode}:\n"
                             f"{out.stdout}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):

    def check_result(self, workload, trace, expected):
        result = run(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in expected})
        for spec in expected:
            metric = metrics[spec["name"]]
            self.assertEqual(metric["unit"], spec["unit"], spec["name"])
            self.assertIsInstance(metric["value"], (int, float), spec["name"])
            self.assertTrue(math.isfinite(metric["value"]), spec["name"])
        return {name: m["value"] for name, m in metrics.items()}

    def test_untraced_runs_report_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                values = self.check_result(workload, 0, SPEC["end_to_end"])
                for name, value in values.items():
                    self.assertGreater(value, 0, name)

    def test_traced_runs_report_and_reconcile_every_layer(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                values = self.check_result(workload, 1, SPEC["per_layer"])
                rows = FOLLOW_ROWS if workload == "follow_replay" else BATCH_ROWS
                total = (sum(values[r] for r in rows) + values["unattributed_s"]
                         + values["trace_overhead_s"])
                self.assertAlmostEqual(total, values["traced_total_s"],
                                       delta=1e-6 + 1e-6 * abs(total))
                if workload == "e1_analyze":
                    for row in BATCH_ROWS:
                        if row != "export.write_s":
                            self.assertGreater(values[row], 0, row)


if __name__ == "__main__":
    unittest.main()
