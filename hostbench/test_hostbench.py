#!/usr/bin/env python3
"""Tests of the host-cost benchmark itself.

  python3 hostbench/test_hostbench.py

Builds the driver like run.py does, then checks that the stepped paths the
benchmark measures reproduce the simulator's one-call entry points, that
the committed digests hold at both committed seeds, that a traced run
reports every per-layer metric, and that BENCHMARK.json and run.py agree
on the metric catalogue.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

COMMITTED_SEEDS = ("42", "7")


def driver_record(driver, *args):
    proc = subprocess.run([str(driver)] + list(args), stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class HostbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.driver = run.build()

    def test_catalogue_matches_benchmark_json(self):
        with open(run.ROOT / "BENCHMARK.json") as f:
            spec = json.load(f)
        e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
        self.assertEqual(e2e, run.END_TO_END)
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(layers, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        for seed in COMMITTED_SEEDS:
            self.assertIn(seed, spec["command"])

    def test_stepped_path_matches_monolithic_run_and_committed_digest(self):
        digests = run.committed_digests()
        for workload in run.WORKLOADS:
            self.assertEqual(sorted(digests[workload]), sorted(COMMITTED_SEEDS))
            for seed in COMMITTED_SEEDS:
                with self.subTest(workload=workload, seed=seed):
                    code, record = driver_record(self.driver, "--selfcheck", "--workload",
                                                 workload, "--seed", seed)
                    self.assertEqual(code, 0)
                    self.assertTrue(record["equal"], record)
                    self.assertEqual(record["digest"], digests[workload][seed])
                    self.assertEqual(run.check(record, set(COMMITTED_SEEDS)), [])
                    self.assertEqual(record["sim"]["failed_frac"], 0)

    def test_traced_run_reports_every_layer(self):
        off_layers = {
            "rack_stream": ("poolmgr.", "poolctl.", "fault.injected", "density.demotions"),
            "dense_node": ("poolmgr.", "poolctl.", "fault.injected", "sim.epochs"),
            "pool_churn": ("density.demotions", "sim.epochs"),
        }
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                record = run.measure(self.driver, workload, 3, 0, True)
                self.assertEqual(run.check(record, set()), [])
                self.assertEqual(record["episodes"], 3)
                self.assertEqual(record["traced_episodes"], 1)
                result = run.result_line(record, True, [])
                self.assertEqual(set(result["metrics"]), set(run.PER_LAYER))
                layers = record["layers"]
                self.assertGreater(layers["platform.submit_s"] + layers["sim.advance_s"], 0)
                self.assertGreater(layers["trace.spans"], 0)
                for prefix in off_layers[workload]:
                    for name, value in layers.items():
                        if name.startswith(prefix):
                            self.assertEqual(value, 0, name)
        pool = record["layers"]
        self.assertGreater(pool["poolctl.heartbeats"], 0)
        self.assertGreater(pool["mempool.rdma_fetch_pages"], 0)

    def test_compare_refuses_other_hosts_and_unoptimised_builds(self):
        host = {"nproc": 4, "cpu": "x", "compiler": "GNU 12.2.0", "build_type": "Release"}
        with tempfile.TemporaryDirectory() as tmp:
            def report(name, **changes):
                path = Path(tmp) / name
                path.write_text(json.dumps({"host": dict(host, **changes), "records": []}))
                return str(path)

            base = report("base.json")
            for other in (report("cores.json", nproc=8), report("debug.json", build_type="Debug")):
                proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "compare", base,
                                       other], capture_output=True, text=True)
                self.assertEqual(proc.returncode, 2, proc.stderr)
            proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "compare", base,
                                   report("same.json")], capture_output=True, text=True)
            self.assertEqual(proc.returncode, 0, proc.stderr)


if __name__ == "__main__":
    unittest.main()
