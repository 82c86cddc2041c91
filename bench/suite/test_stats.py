#!/usr/bin/env python3
"""Unit tests for bench/suite/stats.py (run by ctest as bench_suite_stats)."""

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402


def span(name, parent, start, end, rnd=0, client=-1):
    return {"name": name, "parent": parent, "start": start, "end": end,
            "round": rnd, "client": client}


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        values = [float(v) for v in range(1, 11)]  # 1..10
        self.assertAlmostEqual(stats.percentile(values, 50), 5.5)
        self.assertAlmostEqual(stats.percentile(values, 90), 9.1)
        self.assertEqual(stats.percentile(values, 0), 1.0)
        self.assertEqual(stats.percentile(values, 100), 10.0)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([3.0, 1.0, 2.0], 50), 2.0)

    def test_single_sample(self):
        self.assertEqual(stats.summarize([7.0]), {"p50": 7.0, "p90": 7.0, "n": 1})

    def test_summary_keeps_sample_count(self):
        s = stats.summarize([5.0, 1.0, 4.0, 2.0, 3.0])
        self.assertEqual(s["n"], 5)
        self.assertEqual(s["p50"], 3.0)
        self.assertAlmostEqual(s["p90"], 4.6)

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class IqrTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 10.2]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.iqr_share(values),
                               (q3 - q1) / statistics.median(values))

    def test_constant_sample_has_no_spread(self):
        self.assertEqual(stats.iqr_share([4.0] * 10), 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_union_of_overlapping_intervals(self):
        self.assertEqual(stats.union_length([(0, 4), (2, 6), (8, 9)], 0, 10), 7)

    def test_union_is_clipped_to_the_parent(self):
        self.assertEqual(stats.union_length([(-5, 2), (9, 20)], 0, 10), 3)

    def test_overlapping_children_are_not_double_counted(self):
        # Two clients train in parallel inside one train span.
        spans = [
            span("train", "round", 0, 100),
            span("client", "train", 0, 60, client=0),
            span("client", "train", 10, 90, client=1),
        ]
        self.assertEqual(stats.self_times(spans), [10, 60, 80])

    def test_children_match_round_and_client(self):
        spans = [
            span("client", "train", 0, 50, rnd=0, client=0),
            span("step", "client", 0, 20, rnd=0, client=0),
            span("step", "client", 30, 40, rnd=0, client=0),
            span("step", "client", 0, 50, rnd=0, client=1),  # another client
            span("step", "client", 0, 50, rnd=1, client=0),  # another round
        ]
        self.assertEqual(stats.self_times(spans)[0], 20)

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times([span("eval", "round", 3, 8)]), [5])

    def test_spans_from_trace(self):
        doc = {"traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 0, "args": {"name": "x"}},
            {"name": "step", "cat": "wall", "ph": "X", "pid": 0, "tid": 2, "ts": 1.5,
             "dur": 2.0, "args": {"parent": "client", "round": 3, "client": 4}},
        ]}
        self.assertEqual(stats.spans_from_trace(doc), [
            {"name": "step", "parent": "client", "start": 1.5, "end": 3.5,
             "round": 3, "client": 4}])


if __name__ == "__main__":
    unittest.main()
