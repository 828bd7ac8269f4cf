"""Tests of the benchmark's own logic: seeded inputs and the percentile
rule. Run from the repository root:

    python3 -m unittest discover -s perfbench/tests

The generator test builds the perfbench tools on first use (as run.py
does) and is skipped when the grazelle sources are not next to it.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import benchlib  # noqa: E402
import run  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_min_samples(self):
        self.assertEqual(benchlib.min_samples(0.5), 20)
        self.assertEqual(benchlib.min_samples(0.9), 100)
        self.assertEqual(benchlib.min_samples(0.99), 1000)

    def test_reportable_needs_ten_beyond(self):
        values = list(range(1000))
        self.assertEqual(benchlib.reportable(values, 0.99), 989)
        self.assertIsNone(benchlib.reportable(values[:999], 0.99))
        self.assertEqual(benchlib.reportable(list(range(20)), 0.5), 9.5)
        self.assertIsNone(benchlib.reportable(list(range(19)), 0.5))

    def test_failures_rank_last(self):
        values = [1.0] * 985 + [float("inf")] * 15
        self.assertEqual(benchlib.reportable(values, 0.99), math.inf)
        self.assertEqual(benchlib.reportable(values, 0.5), 1.0)

    def test_interquartile_mean(self):
        self.assertIsNone(benchlib.interquartile_mean(list(range(19))))
        # The middle half of 0..19 is 5..14.
        self.assertEqual(benchlib.interquartile_mean(list(range(20))), 9.5)
        # A bimodal mix: the median jumps, the interquartile mean does not.
        a = [18.0] * 51 + [27.0] * 49
        b = [18.0] * 49 + [27.0] * 51
        self.assertEqual(benchlib.percentile(a, 0.5)[0], 18.0)
        self.assertEqual(benchlib.percentile(b, 0.5)[0], 27.0)
        self.assertAlmostEqual(benchlib.interquartile_mean(a), 22.32)
        self.assertAlmostEqual(benchlib.interquartile_mean(b), 22.68)

    def test_window_quantile_diffs_scrapes(self):
        before = benchlib.parse_histograms(
            'h_bucket{op="bfs",le="0.001"} 5\n'
            'h_bucket{op="bfs",le="+Inf"} 5\n', "h")
        after = benchlib.parse_histograms(
            'h_bucket{op="bfs",le="0.001"} 5\n'
            'h_bucket{op="bfs",le="0.002"} 25\n'
            'h_bucket{op="bfs",le="+Inf"} 25\n'
            'h_bucket{op="cc",le="0.004"} 10\n'
            'h_bucket{op="cc",le="+Inf"} 10\n', "h")
        # 20 bfs samples in (1, 2] ms, 10 cc samples in (2, 4] ms; the
        # 15th of 30 lies 15/20 of the way into the (1, 2] ms bucket.
        value, n = benchlib.window_quantile(before, after, 0.5)
        self.assertEqual(n, 30)
        self.assertAlmostEqual(value, 0.00175)
        self.assertEqual(benchlib.window_quantile(before, after, 0.99),
                         (None, 30))


class MetricLists(unittest.TestCase):
    def test_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            doc = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in doc["per_layer"]],
                         [(name, unit) for name, unit, _ in run.PER_LAYER])
        self.assertEqual(sorted(w["name"] for w in doc["workloads"]),
                         sorted(run.WORKLOADS))


class SeededInputs(unittest.TestCase):
    SOURCES = list(range(1, 5000, 3))

    def schedule(self, seed, ingest_lines=()):
        return benchlib.serving_schedule(seed, self.SOURCES, 100.0, 1.0,
                                         5.0, 0.02, ingest_lines)

    def test_same_seed_same_schedule(self):
        self.assertEqual(self.schedule(7), self.schedule(7))
        self.assertNotEqual(self.schedule(7), self.schedule(8))

    def test_schedule_shape(self):
        lines = self.schedule(7)
        dues = [int(line.split()[0]) for line in lines]
        self.assertEqual(dues, sorted(dues))
        measured = [line for line in lines if line.split()[2] == "m"]
        # Poisson at 100 req/s over 5 s.
        self.assertTrue(400 < len(measured) < 600, len(measured))
        kinds = [line.split()[1] for line in measured]
        self.assertGreater(kinds.count("bfs"), 0.8 * len(kinds))
        warm = [line for line in lines if line.split()[2] == "w"]
        self.assertTrue(all(line.split()[3] == "0" for line in warm))

    def test_final_phase_ingests_then_checks(self):
        lines = self.schedule(7, ingest_lines=["{\"op\":\"ingest\"}"] * 2)
        self.assertEqual([line.split()[1:3] for line in lines[-4:]],
                         [["ingest", "f"], ["ingest", "f"], ["list", "f"],
                          ["cc", "f"]])
        self.assertFalse(any(line.split()[1] == "ingest"
                             for line in lines[:-4]))

    def test_roots(self):
        self.assertEqual(benchlib.pick_roots(3, self.SOURCES, 8),
                         benchlib.pick_roots(3, self.SOURCES, 8))
        self.assertEqual(len(set(benchlib.pick_roots(3, self.SOURCES, 8))),
                         8)


@unittest.skipUnless(os.path.exists(os.path.join(run.ROOT, "src")),
                     "grazelle sources not present")
class GeneratedGraph(unittest.TestCase):
    def digest(self, tmp, name, seed):
        path = os.path.join(tmp, name)
        subprocess.run([run.PERFBENCH, "gen-rmat", "--scale", "10",
                        "--seed", str(seed), "--out", path], check=True,
                        capture_output=True)
        ingest = path + ".ingest"
        subprocess.run([run.PERFBENCH, "gen-ingest", "--edges", path,
                        "--seed", str(seed), "--batches", "3", "--inserts",
                        "16", "--deletes", "4", "--out", ingest],
                       check=True, capture_output=True)
        h = hashlib.sha256()
        for p in (path, path + ".sources", ingest):
            with open(p, "rb") as f:
                h.update(f.read())
        return h.hexdigest()

    def test_same_seed_same_bytes(self):
        run.build()
        os.makedirs(run.WORK, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            self.assertEqual(self.digest(tmp, "a", 11),
                             self.digest(tmp, "b", 11))
            self.assertNotEqual(self.digest(tmp, "a", 11),
                                self.digest(tmp, "c", 12))


if __name__ == "__main__":
    unittest.main()
