"""Tests of the percentile helper: python3 -m unittest discover perfbench"""

import math
import random
import statistics
import unittest

import stats


class NearestRank(unittest.TestCase):
    def test_small(self):
        v = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        self.assertEqual(stats.nearest_rank(v, 50), 5)
        self.assertEqual(stats.nearest_rank(v, 90), 9)
        self.assertEqual(stats.nearest_rank(v, 100), 10)
        self.assertEqual(stats.nearest_rank(v, 0.1), 1)

    def test_empty(self):
        with self.assertRaises(ValueError):
            stats.nearest_rank([], 50)


class Tail(unittest.TestCase):
    def test_ladder_choice(self):
        self.assertIsNone(stats.tail_percentile(1))
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(49), 75.0)
        self.assertEqual(stats.tail_percentile(50), 80.0)
        self.assertEqual(stats.tail_percentile(99), 80.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(2000), 99.5)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_always_ten_beyond(self):
        for n in range(1, 3000):
            pct = stats.tail_percentile(n)
            if pct is None:
                continue
            self.assertGreaterEqual(stats.beyond(n, pct), stats.MIN_BEYOND)
            higher = [p for p in stats.TAIL_LADDER if p > pct]
            for p in higher:
                self.assertLess(stats.beyond(n, p), stats.MIN_BEYOND)

    def test_beyond_counts_samples_above(self):
        rng = random.Random(3)
        for n in (20, 57, 100, 333, 1000):
            v = sorted(rng.random() for _ in range(n))
            pct = stats.tail_percentile(n)
            t = stats.nearest_rank(v, pct)
            self.assertEqual(sum(1 for x in v if x > t), stats.beyond(n, pct))


class Summarize(unittest.TestCase):
    def test_fields(self):
        s = stats.summarize(list(range(100, 0, -1)))
        self.assertEqual(s["n"], 100)
        self.assertEqual(s["median"], 50.5)
        self.assertEqual(s["tail_pct"], 90.0)
        self.assertEqual(s["tail"], 90)

    def test_too_few_for_a_tail(self):
        s = stats.summarize([3.0, 1.0])
        self.assertEqual((s["n"], s["median"]), (2, 2.0))
        self.assertIsNone(s["tail_pct"])
        self.assertIsNone(s["tail"])

    def test_empty(self):
        with self.assertRaises(ValueError):
            stats.summarize([])

    def test_label(self):
        self.assertEqual(stats.pct_label(90.0), "p90")
        self.assertEqual(stats.pct_label(99.5), "p99.5")


class Spread(unittest.TestCase):
    def test_matches_quantiles(self):
        v = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 10.0, 9.7]
        q1, med, q3 = statistics.quantiles(v, n=4)
        self.assertTrue(math.isclose(stats.spread(v), (q3 - q1) / med))

    def test_constant(self):
        self.assertEqual(stats.spread([2.0] * 10), 0.0)


if __name__ == "__main__":
    unittest.main()
