"""Tests of the benchmark's statistics helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import stats


class QuartileTest(unittest.TestCase):
    def test_median_and_quartiles_match_the_standard_library(self):
        xs = [9.0, 1.0, 4.0, 7.0, 3.0, 8.0, 2.0, 6.0, 5.0, 10.0]
        self.assertEqual(stats.median(xs), 5.5)
        self.assertEqual(stats.quartiles(xs), tuple(statistics.quantiles(xs, n=4)))

    def test_spread_is_iqr_over_median(self):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(stats.spread(xs), (q3 - q1) / q2)

    def test_single_sample_has_no_spread(self):
        self.assertEqual(stats.quartiles([4.0]), (4.0, 4.0, 4.0))
        self.assertEqual(stats.spread([4.0]), 0.0)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        xs = list(range(1, 101))
        self.assertEqual(stats.percentile(xs, 0.5), 50)
        self.assertEqual(stats.percentile(xs, 0.99), 99)
        self.assertEqual(stats.percentile(xs, 1.0), 100)

    def test_tail_percentile_needs_ten_samples_beyond(self):
        # 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        xs = [float(i) for i in range(1000)]
        p, value, n = stats.tail_percentile(xs)
        self.assertEqual((p, value, n), (0.99, 989.0, 1000))
        # 999 samples: p99 leaves 9 beyond, so p90 is the highest.
        p, _, n = stats.tail_percentile(xs[:999])
        self.assertEqual((p, n), (0.9, 999))
        self.assertIsNone(stats.tail_percentile(xs[:15]))

    def test_reduce_refuses_an_unsupported_percentile(self):
        with self.assertRaises(ValueError):
            stats.reduce("p99", [1.0] * 999)
        self.assertEqual(stats.reduce("p99", [1.0] * 1000), 1.0)
        self.assertEqual(stats.reduce("median", [3.0, 1.0, 2.0]), 2.0)
        with self.assertRaises(ValueError):
            stats.reduce("median", [])

    def test_windowed_reduce_is_the_median_over_runs(self):
        # Three runs of 1000 samples; one run is a burst of stalls.
        quiet = [1.0] * 1000
        burst = [100.0] * 1000
        self.assertEqual(stats.reduce("p99", quiet + burst + quiet, 3), 1.0)
        self.assertEqual(stats.reduce("p99", quiet + burst + quiet), 100.0)
        with self.assertRaises(ValueError):
            stats.reduce("p99", quiet, 2)


class PairedComparisonTest(unittest.TestCase):
    def test_order_alternates(self):
        self.assertEqual(
            stats.run_order(3),
            [("parent", "change"), ("change", "parent"), ("parent", "change")],
        )

    def test_clear_gain_is_claimed(self):
        parent = [100.0 + i % 3 for i in range(10)]
        change = [90.0 + i % 3 for i in range(10)]
        v = stats.paired_compare(parent, change, "lower")
        self.assertEqual(v["wins"], 10)
        self.assertTrue(v["gain"])

    def test_gain_within_parent_spread_is_not_claimed(self):
        parent = [100.0, 110.0, 90.0, 105.0, 95.0, 100.0, 112.0, 88.0, 101.0, 99.0]
        change = [p - 3.0 for p in parent]
        v = stats.paired_compare(parent, change, "lower")
        self.assertEqual(v["wins"], 10)
        self.assertFalse(v["gain"], "a 3-unit gap is inside the parent's IQR")

    def test_too_few_wins_or_pairs_is_not_a_gain(self):
        parent = [100.0] * 10
        change = [80.0] * 8 + [100.0, 120.0]
        self.assertFalse(stats.paired_compare(parent, change, "lower")["gain"])
        self.assertFalse(stats.paired_compare([100.0] * 9, [50.0] * 9, "lower")["gain"])

    def test_direction_follows_better(self):
        parent = [100.0 + i % 2 for i in range(10)]
        change = [120.0 + i % 2 for i in range(10)]
        self.assertTrue(stats.paired_compare(parent, change, "higher")["gain"])
        self.assertFalse(stats.paired_compare(parent, change, "lower")["gain"])

    def test_regression_bound_is_a_share_of_the_parent_median(self):
        self.assertFalse(stats.regressed([100.0] * 3, [109.0] * 3, "lower", 0.1))
        self.assertTrue(stats.regressed([100.0] * 3, [111.0] * 3, "lower", 0.1))
        self.assertTrue(stats.regressed([100.0] * 3, [89.0] * 3, "higher", 0.1))


class VerdictTest(unittest.TestCase):
    SPEC = {
        "end_to_end": [
            {"name": "ingest_eps", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        ]
    }

    def test_noisy_parent_is_unresolved(self):
        parent = [100.0, 60.0, 140.0, 100.0, 70.0, 130.0, 100.0, 65.0, 135.0, 100.0]
        change = [p * 0.5 for p in parent]
        self.assertEqual(stats.verdict(parent, change, "higher", 0.1)["verdict"], "unresolved")

    def test_steady_parent_gives_a_verdict(self):
        parent = [100.0 + i % 3 for i in range(10)]
        self.assertEqual(stats.verdict(parent, [80.0] * 10, "higher", 0.1)["verdict"], "regressed")
        self.assertEqual(stats.verdict(parent, [120.0] * 10, "higher", 0.1)["verdict"], "gain")
        self.assertEqual(stats.verdict(parent, parent, "higher", 0.1)["verdict"], "same")

    def test_split_key_reads_both_namings(self):
        names = ["ingest_eps", "setup_s"]
        self.assertEqual(stats.split_key("ingest_eps", names), (None, "ingest_eps"))
        self.assertEqual(
            stats.split_key("nas_replay.ingest_eps", names), ("nas_replay", "ingest_eps")
        )
        self.assertEqual(stats.split_key("nas_replay.rss_mb", names), (None, None))

    def test_compare_reads_prefixed_result_lines(self):
        def line(eps, setup):
            return {
                "metrics": {
                    "nas_replay.ingest_eps": {"value": eps, "unit": "1/s"},
                    "nas_replay.setup_s": {"value": setup, "unit": "s"},
                    "nas_replay.workload.events": {"value": 5.0, "unit": "count"},
                }
            }

        parent = [line(100.0 + i % 2, 1.0) for i in range(10)]
        change = [line(80.0, 1.0) for _ in range(10)]
        got = stats.compare(parent, change, self.SPEC)
        self.assertEqual(sorted(got), ["nas_replay.ingest_eps", "nas_replay.setup_s"])
        self.assertEqual(got["nas_replay.ingest_eps"]["verdict"], "regressed")
        self.assertEqual(got["nas_replay.setup_s"]["verdict"], "same")


if __name__ == "__main__":
    unittest.main()
