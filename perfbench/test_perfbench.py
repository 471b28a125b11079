"""Tests of the benchmark itself: tracer arithmetic, golden checks, seeds,
the counters' self-consistency on every workload, and BENCHMARK.json.

    python3 -m unittest discover -s perfbench -v

The workload test runs one traced pass of each workload (about 20 s).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, LargeOrderQueries  # noqa: E402

circiso = run.load_circiso()
GOLDENS = json.loads((HERE / "goldens.json").read_text())


def _one_command_golden(argv, code=0, digest=None) -> dict:
    choice = {"argv": argv, "sets": 1, "code": code, "stdout_sha256": digest or "0" * 64}
    return {"slots": [{"name": "test", "picks": 1, "choices": [choice]}]}


class TracerTest(unittest.TestCase):
    def test_self_times_partition_the_root_span(self):
        c = circiso.ConnectionSet(16, (1, 6, 7))
        with spans.Tracer() as tracer:
            circiso.ci_theta_status(c)
        root = tracer.stats["classify.ci_theta_status"]
        self.assertEqual(root.calls, 1)
        total_self = sum(s.self_time for s in tracer.stats.values())
        self.assertAlmostEqual(total_self, root.total, delta=1e-9 + 1e-6 * root.total)
        for stat in tracer.stats.values():
            self.assertGreaterEqual(stat.self_time, -1e-9)
        metrics = tracer.metrics()
        self.assertGreater(metrics["classify.probes"], 0)
        self.assertEqual(spans.self_checks(metrics, ()), [])

    def test_wraps_call_site_bindings_and_restores_them(self):
        original = circiso.theta.theta_image
        with spans.Tracer():
            self.assertIsNot(circiso.classify.theta_image, original)
            self.assertIs(circiso.classify.theta_image, circiso.theta.theta_image)
            self.assertIs(circiso.theta_image, circiso.theta.theta_image)
        self.assertIs(circiso.classify.theta_image, original)
        self.assertIs(circiso.theta.theta_image, original)

    def test_missing_function_is_reported_absent(self):
        original = circiso.theta.shortcut_disagreement
        del circiso.theta.shortcut_disagreement
        try:
            with spans.Tracer() as tracer:
                circiso.theta_image(circiso.ConnectionSet(24, (1, 2, 11)), 2, 3)
        finally:
            circiso.theta.shortcut_disagreement = original
        self.assertEqual(tracer.absent, ["theta.shortcut_disagreement"])
        self.assertEqual(tracer.metrics()["theta.edge_image.calls"], 1)

    def test_self_checks_flag_inconsistent_counters(self):
        metrics = dict.fromkeys((name for name, _ in spans.METRICS), 0)
        metrics["classify.probes"] = 3
        metrics["classify.outcome.self"] = 2
        metrics["oracle.decisions"] = 1
        self.assertEqual(len(spans.self_checks(metrics, ("oracle.decisions",))), 3)


class GoldenTest(unittest.TestCase):
    def test_mismatch_exit_code_and_crash_count_as_failures(self):
        argv = ["reduce", "--n", "24", "--set", "5,10,55"]
        wrong_digest = LargeOrderQueries(_one_command_golden(argv), seed=1)
        self.assertEqual(len(wrong_digest.run_pass(circiso).failures), 1)
        wrong_code = LargeOrderQueries(_one_command_golden(argv, code=2), seed=1)
        self.assertEqual(len(wrong_code.run_pass(circiso).failures), 1)
        missing = str(HERE / "out" / "no-such-file.txt")
        crash = LargeOrderQueries(_one_command_golden(["classify", "--file", missing]), seed=1)
        failures = crash.run_pass(circiso).failures
        self.assertEqual(len(failures), 1)
        self.assertIn("FileNotFoundError", failures[0])

    def test_matching_command_passes(self):
        argv = ["reduce", "--n", "24", "--set", "5,10,55"]
        from workloads import sha256

        ok = LargeOrderQueries(_one_command_golden(argv, digest=sha256("5,7,10\n")), seed=1)
        result = ok.run_pass(circiso)
        self.assertEqual(result.failures, [])
        self.assertEqual(len(result.latencies), 1)


class SeedTest(unittest.TestCase):
    def test_queries_come_from_the_seed_alone(self):
        golden = GOLDENS["large_order_queries"]
        first = LargeOrderQueries(golden, 7).commands
        self.assertEqual(first, LargeOrderQueries(golden, 7).commands)
        self.assertNotEqual(first, LargeOrderQueries(golden, 8).commands)
        self.assertGreaterEqual(len(first), 100)

    def test_census_workloads_ignore_the_seed(self):
        for name in ("type2_census", "ci_census"):
            cls = WORKLOADS[name]
            self.assertFalse(cls.seed_used)
            a, b = cls(GOLDENS[name], 1), cls(GOLDENS[name], 2)
            self.assertEqual((a.queries, a.sets), (b.queries, b.sets))


class WorkloadTest(unittest.TestCase):
    def test_traced_pass_is_correct_and_consistent(self):
        for name, cls in WORKLOADS.items():
            with self.subTest(workload=name):
                workload = cls(GOLDENS[name], 1)
                with spans.Tracer() as tracer:
                    result = workload.run_pass(circiso)
                self.assertEqual(result.failures, [])
                self.assertEqual(tracer.absent, [])
                metrics = tracer.metrics()
                self.assertEqual(set(metrics) | {"trace.overhead"}, {n for n, _ in spans.METRICS})
                self.assertEqual(spans.self_checks(metrics, workload.idle), [])


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_what_the_code_reports(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(WORKLOADS))
        for key, metrics in (("end_to_end", run.END_TO_END), ("per_layer", spans.METRICS)):
            self.assertEqual([(m["name"], m["unit"]) for m in bench[key]], list(metrics))

    def test_refuses_to_run_without_sources(self):
        (HERE / "out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            skip = shutil.ignore_patterns("out", "__pycache__")
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=skip)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "ci_census", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
