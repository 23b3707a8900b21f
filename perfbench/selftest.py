"""Tests of the benchmark's own arithmetic, plus a short smoke run of
every workload.

Run from the repository root: python3 perfbench/selftest.py
(pass -k NAME to select tests, as with unittest).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

from measure import Op, OpLog, latency_ladder, summarize, tail_percentile
from run import END_TO_END, ROOT, WORKDIR, WORKLOADS, run_phase
from tracing import PER_LAYER, Tracer, covered_ns, layer_metrics

HERE = Path(__file__).resolve().parent


def _span(tracer: Tracer, name: str, start: int, end: int, parent: int = -1,
          op: int = 0) -> int:
    tracer.name_id.append(tracer._intern(name))
    tracer.start.append(start)
    tracer.end.append(end)
    tracer.parent.append(parent)
    tracer.op.append(op)
    return len(tracer) - 1


class TailPercentile(unittest.TestCase):
    def test_highest_ladder_step_with_ten_beyond(self):
        samples = [float(x) for x in range(1, 101)]
        self.assertEqual(tail_percentile(samples), (90.0, 90.0, 10))
        samples = [float(x) for x in range(1000, 0, -1)]
        self.assertEqual(tail_percentile(samples), (990.0, 99.0, 10))
        samples = [float(x) for x in range(1, 10001)]
        self.assertEqual(tail_percentile(samples), (9990.0, 99.9, 10))

    def test_step_below_when_short_of_ten(self):
        # 99 samples: p90 would leave 9 beyond, so p75 (rank 75, 24 beyond).
        self.assertEqual(tail_percentile([float(x) for x in range(1, 100)]), (75.0, 75.0, 24))
        self.assertEqual(tail_percentile([float(x) for x in range(1, 9999)]),
                         (9899.0, 99.0, 99))
        self.assertEqual(tail_percentile([float(x) for x in range(1, 21)]), (10.0, 50.0, 10))

    def test_median_when_nothing_qualifies(self):
        self.assertEqual(tail_percentile([float(x) for x in range(1, 20)]), (10.0, 50.0, 9))
        self.assertEqual(tail_percentile([5.0]), (5.0, 50.0, 0))

    def test_ladder_lists_qualifying_steps(self):
        ladder = latency_ladder([float(x) for x in range(1, 201)])
        self.assertEqual(ladder, {50.0: 100.0, 75.0: 150.0, 90.0: 180.0, 95.0: 190.0})

    def test_empty(self):
        with self.assertRaises(ValueError):
            tail_percentile([])


class SelfTime(unittest.TestCase):
    def test_covered_union(self):
        self.assertEqual(covered_ns([], 0, 100), 0)
        self.assertEqual(covered_ns([(10, 20), (30, 50)], 0, 100), 30)  # siblings
        self.assertEqual(covered_ns([(10, 40), (30, 50)], 0, 100), 40)  # overlapping
        self.assertEqual(covered_ns([(10, 90), (20, 30)], 0, 100), 80)  # contained
        self.assertEqual(covered_ns([(-10, 20), (90, 120)], 0, 100), 30)  # clipped

    def test_nested_and_sibling_children(self):
        tr = Tracer()
        root = _span(tr, "op:x", 0, 1000)
        a = _span(tr, "inference:independence_test", 100, 600, root)
        _span(tr, "special:chi2_sf", 150, 250, a)
        b = _span(tr, "association:pearson_correlation", 300, 500, a)
        _span(tr, "special:chi2_sf", 350, 400, b)  # grandchild of a
        _span(tr, "special:chi2_sf", 450, 550, a)  # overlaps sibling b
        m = layer_metrics(tr, {0: (None, 0)}, 0.0, 0.0)
        # a covers 100..600; its direct children cover 150..250 and 300..550.
        self.assertAlmostEqual(m["inference.self_s"], 150e-9)
        self.assertAlmostEqual(m["inference.busy_s"], 500e-9)
        self.assertEqual(m["special.calls"], 3)
        self.assertAlmostEqual(m["special.busy_s"], 250e-9)
        self.assertAlmostEqual(m["special.us_per_call"], 250e-3 / 3)
        self.assertEqual(m["association.calls"], 1)
        self.assertEqual(list(m), [name for name, _ in PER_LAYER])

    def test_nested_same_layer_counts_busy_once(self):
        tr = Tracer()
        outer = _span(tr, "association:pearson_correlation", 0, 100)
        _span(tr, "association:default_scores", 10, 20, outer)
        m = layer_metrics(tr, {}, 0.0, 0.0)
        self.assertEqual(m["association.calls"], 2)
        self.assertAlmostEqual(m["association.busy_s"], 100e-9)

    def test_per_replicate_and_cli_stages(self):
        tr = Tracer()
        cal = _span(tr, "simulate:calibrate_null", 0, 1000, op=0)
        for k in range(4):  # four replicates: a table and a chi2_sf call each
            _span(tr, "table:ContingencyTable", 10 + 200 * k, 20 + 200 * k, cal, op=0)
            _span(tr, "special:chi2_sf", 30 + 200 * k, 40 + 200 * k, cal, op=0)
        main = _span(tr, "cli:main", 2000, 3000, op=1)
        run = _span(tr, "cli:run", 2100, 2900, main, op=1)
        _span(tr, "io:parse_counts_csv", 2200, 2300, run, op=1)
        _span(tr, "inference:independence_test", 2400, 2600, run, op=1)
        m = layer_metrics(tr, {0: ("chisq", 4), 1: (None, 0)}, 12.5, 0.1)
        self.assertEqual(m["table.calls_per_replicate"], 1.0)
        self.assertEqual(m["special.calls_per_replicate"], 1.0)
        self.assertAlmostEqual(m["simulate.us_per_replicate"], 1000e-3 / 4)
        self.assertAlmostEqual(m["cli.parse_ms"], 200e-6)
        self.assertAlmostEqual(m["cli.compute_ms"], 300e-6)
        self.assertAlmostEqual(m["cli.render_ms"], 500e-6)
        self.assertEqual(m["cli.import_ms"], 12.5)
        self.assertEqual(m["trace.overhead_frac"], 0.1)

    def test_child_spans_are_adopted_under_parent(self):
        tr = Tracer()
        tr.op_id = 7
        parent = tr.open("op:x")
        tr.adopt({"names": ["cli:main", "cli:run"],
                  "spans": [[0, 10, 90, -1], [1, 20, 80, 0]], "io_bytes": 5}, parent)
        tr.close(parent)
        self.assertEqual(list(tr.parent), [-1, parent, parent + 1])
        self.assertEqual(list(tr.op), [7, 7, 7])
        self.assertEqual(tr.io_bytes, 5)


class FailureAccounting(unittest.TestCase):
    def test_oplog(self):
        log = OpLog()
        log.add("a", 2_000_000, 10)
        log.add("b", 1_000_000, 10, error="ValueError: boom")
        log.add("c", 1_000_000, 10, wrong=True)
        self.assertEqual((log.attempted, log.failed, log.raised, log.wrong), (3, 2, 1, 1))
        self.assertAlmostEqual(log.failed_frac, 2 / 3)
        self.assertAlmostEqual(log.wall_throughput, 10 / 0.004)  # failed ops take time
        self.assertEqual(log.pool_ms(), [2.0])
        self.assertEqual(summarize(log)["latency_ms_p50"], 2.0)

    def _two_op_log(self, keep: int) -> OpLog:
        log = OpLog(keep=keep)
        for slow, fast in ((10, 2), (11, 1), (50, 3)):  # one repeat slowed down
            log.add("slow op", slow * 1_000_000, 4)
            log.add("fast op", fast * 1_000_000, 1)
            log.cycles += 1
        return log

    def test_pool_keeps_the_fastest_repeats(self):
        log = self._two_op_log(keep=2)
        self.assertEqual(sorted(log.pool_ms()), [1.0, 2.0, 10.0, 11.0])
        self.assertAlmostEqual(log.wall_throughput, 15 / 0.077)
        self.assertAlmostEqual(log.throughput, 5 / 0.011)  # 10 + 1 ms a cycle
        summary = summarize(log)
        self.assertEqual(summary["latency_ms_p50"], 5.5)  # of the fastest: 1, 10
        self.assertEqual(summary["samples"], 4)

    def test_failed_repeats_stay_out_of_the_pool(self):
        log = self._two_op_log(keep=1)
        log.add("fast op", 500_000, 1, error="RuntimeError: x")
        log.add("slow op", 100_000, 4, wrong=True)
        log.cycles += 1
        self.assertEqual(sorted(log.pool_ms()), [1.0, 10.0])
        self.assertAlmostEqual(log.throughput, 15 / 4 / 0.011)

    def test_tail_has_distinct_measurements_beyond_it(self):
        log = OpLog(keep=3)
        for k in range(40):
            for op in range(10):
                log.add(f"op{op}", (100 * op + k + 1) * 1_000_000, 1)
        summary = summarize(log)  # 30 samples: p50 has 15 beyond, p75 only 7
        self.assertEqual(summary["latency_ms_p50"], 451.0)  # of 1, 101, ..., 901
        self.assertEqual(summary["tail_percentile"], 50.0)
        self.assertEqual(summary["tail_samples_beyond"], 15)
        self.assertEqual(summary["latency_ms_tail"], 403.0)  # rank 15 of 30

    def test_summarize_needs_a_success(self):
        log = OpLog()
        log.add("a", 1_000_000, 1, wrong=True)
        with self.assertRaises(ValueError):
            summarize(log)

    def test_run_phase_counts_raises_and_wrong_outputs(self):
        def boom():
            raise ValueError("boom")

        ops = [Op("ok", lambda: 1, lambda out: out == 1),
               Op("raises", boom, lambda out: True),
               Op("wrong", lambda: 2, lambda out: out == 1),
               Op("bad check", lambda: 3, lambda out: out["missing"])]
        log = run_phase(ops, 0.0)
        self.assertEqual((log.attempted, log.raised, log.wrong, log.cycles), (4, 1, 2, 1))
        self.assertEqual(log.errors, {"ValueError: boom": 1})
        self.assertAlmostEqual(log.failed_frac, 0.75)


def _run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


class Smoke(unittest.TestCase):
    def _check(self, workload: str, trace: int, names: list[str]):
        proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)], ROOT)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        *_, details, last = proc.stdout.splitlines()
        result = json.loads(last)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), names)
        env = json.loads(details)["environment"]
        self.assertEqual(env["seed"], 3)
        return result["metrics"], json.loads(details)

    def test_every_workload_untraced(self):
        names = [name for name, _ in END_TO_END]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics, _ = self._check(workload, 0, names)
                self.assertTrue(all(m["value"] > 0 for m in metrics.values()))

    def test_traced_cli(self):
        metrics, _ = self._check("cli", 1, [name for name, _ in PER_LAYER])
        self.assertEqual(metrics["table.calls_per_replicate"]["value"], 1.0)
        self.assertEqual(metrics["special.calls_per_replicate"]["value"], 2.0)
        self.assertGreater(metrics["io.bytes"]["value"], 0)

    def test_fails_without_the_program(self):
        bare = WORKDIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = _run(["--workload", "scan", "--seed", "1", "--seconds", "1"], bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
