"""Tests of the benchmark's own arithmetic (no build, no run):

    python3 -m unittest discover -s perfbench
"""

import json
import unittest
from pathlib import Path

import metrics

MS = 1_000_000  # nanoseconds


def span(name, start_ns, end_ns, case=0, parent=-1, request=-1):
    return {"name": name, "case": case, "start": start_ns, "end": end_ns,
            "parent": parent, "request": request}


def requests_every(n, first_ns, gap_ns, latency_ns):
    return [span("serve.request", first_ns + i * gap_ns, first_ns + i * gap_ns + latency_ns)
            for i in range(n)]


class TailPercentile(unittest.TestCase):
    def test_p99_when_the_sample_supports_it(self):
        q, value, n = metrics.tail_percentile(range(1, 1001))
        self.assertEqual((q, value, n), (99.0, 990, 1000))

    def test_highest_percentile_with_ten_samples_beyond(self):
        q, value, n = metrics.tail_percentile(range(1, 501))
        self.assertAlmostEqual(q, 98.0)
        self.assertEqual((value, n), (490, 500))
        self.assertEqual(sum(1 for x in range(1, 501) if x > value), 10)

    def test_every_size_leaves_at_least_ten_beyond(self):
        for n in range(20, 3000, 7):
            q, value, count = metrics.tail_percentile(list(range(n)))
            self.assertEqual(count, n)
            self.assertLessEqual(q, 99.0)
            self.assertGreaterEqual(sum(1 for x in range(n) if x > value), 10, n)

    def test_small_samples_fall_back_to_the_median(self):
        self.assertEqual(metrics.tail_percentile(range(1, 20)), (50.0, 10, 19))
        self.assertEqual(metrics.tail_percentile([7.5]), (50.0, 7.5, 1))

    def test_order_does_not_matter_and_empty_is_an_error(self):
        self.assertEqual(metrics.tail_percentile([3, 1, 2] * 10)[1],
                         metrics.tail_percentile([1, 2, 3] * 10)[1])
        with self.assertRaises(ValueError):
            metrics.tail_percentile([])


class Residual(unittest.TestCase):
    def test_residual_is_latency_minus_the_timed_parts(self):
        self.assertAlmostEqual(metrics.residual_us(470.0, 195.0, 0.5, 11.0), 263.5)

    def test_residual_uses_the_windowed_latency_median(self):
        spans = requests_every(30, 0, 100 * MS, 2 * MS)  # 3 s of 2 ms requests
        spans += [span("setup", 0, MS),
                  span("core.recommend_batch", 0, 500_000),
                  span("serve.codec", 0, 1_000),
                  span("serve.socket_rtt", 0, 20_000)]
        raw = {"spans": spans, "counters": {"items": 120, "peak_rss_mb": 10.0,
                                            "serve.batch_queries": 4}}
        out = metrics.per_layer("serve_small", raw)
        self.assertAlmostEqual(out["serve.residual_us.p50"], 2000.0 - 500.0 - 1.0 - 20.0)


class ItemsPerSecond(unittest.TestCase):
    def test_batch_rate_is_the_median_job_rate(self):
        spans = [span("job", 0, 1000 * MS), span("job", 2000 * MS, 4000 * MS),
                 span("job", 5000 * MS, 6500 * MS)]
        # 900 items over 3 equal jobs: 300/1 s, 300/2 s, 300/1.5 s.
        self.assertAlmostEqual(metrics.items_per_s("label", {"items": 900}, spans), 200.0)

    def test_set_up_between_jobs_is_not_measured_time(self):
        spans = [span("setup", 0, 5000 * MS), span("job", 5000 * MS, 6000 * MS)]
        self.assertAlmostEqual(metrics.items_per_s("train", {"items": 50}, spans), 50.0)

    def test_serve_rate_counts_queries_per_whole_window(self):
        spans = (requests_every(10, 0, 100 * MS, MS)            # window 0: 10 requests
                 + requests_every(20, 1000 * MS, 50 * MS, MS)   # window 1: 20
                 + requests_every(30, 2000 * MS, 33 * MS, MS)   # window 2: 30
                 + requests_every(5, 3000 * MS, 10 * MS, MS))   # partial window: dropped
        counters = {"serve.batch_queries": 4}
        self.assertAlmostEqual(metrics.items_per_s("serve_bulk", counters, spans), 80.0)

    def test_a_run_shorter_than_a_window_uses_its_length(self):
        spans = requests_every(5, 0, 100 * MS, 100 * MS)  # 5 requests in 0.5 s
        counters = {"serve.batch_queries": 64}
        self.assertAlmostEqual(metrics.items_per_s("serve_bulk", counters, spans), 640.0)


class OutputShape(unittest.TestCase):
    RAW = {
        "label": {"spans": [span("setup", 0, MS), span("job", MS, 3 * MS)],
                  "counters": {"items": 10, "peak_rss_mb": 5.0}},
        "train": {"spans": [span("setup", 0, MS), span("job", MS, 3 * MS),
                            span("models.fit", MS, 2 * MS, case=1),
                            span("ml.train_step", 0, MS // 2, case=1)],
                  "counters": {"items": 10, "peak_rss_mb": 5.0}},
        "serve_small": {"spans": [span("setup", 0, MS)] + requests_every(40, MS, 100 * MS, MS),
                        "counters": {"items": 160, "peak_rss_mb": 5.0,
                                     "serve.batch_queries": 4}},
    }
    RAW["serve_bulk"] = RAW["serve_small"]

    def test_last_line_has_exactly_the_contract_keys(self):
        line = metrics.result_line(3, 0, {"setup_s": 0.5}, {"setup_s": "s"})
        decoded = json.loads(json.dumps(line))
        self.assertEqual(set(decoded), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(decoded["metrics"], {"setup_s": {"value": 0.5, "unit": "s"}})
        self.assertIs(decoded["correct"], True)

    def test_a_failed_operation_makes_the_run_incorrect(self):
        self.assertIs(metrics.result_line(3, 1, {}, {})["correct"], False)
        with self.assertRaises(ValueError):
            metrics.result_line(0, 0, {}, {})

    def test_every_workload_reports_every_metric(self):
        for workload in metrics.WORKLOADS:
            raw = self.RAW[workload]
            e2e, notes = metrics.end_to_end(workload, raw)
            self.assertEqual(set(e2e), set(metrics.END_TO_END), workload)
            self.assertTrue(all(v > 0 for v in e2e.values()), workload)
            self.assertEqual(set(metrics.per_layer(workload, raw)), set(metrics.PER_LAYER))
            self.assertTrue(notes)

    def test_benchmark_json_declares_what_the_benchmark_prints(self):
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        spec = json.loads(path.read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(metrics.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, metrics.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, metrics.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
