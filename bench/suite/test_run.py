#!/usr/bin/env python3
"""Unit tests for bench/suite/run.py's reports (run by ctest as bench_suite_run)."""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

E2E = [{"name": "run_wall_s", "unit": "s", "better": "lower", "bound": 0.10},
       {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}]


def result(workload, correct=True, **metrics):
    return {"workload": workload, "correct": correct, "attempted": 1,
            "failed": 0 if correct else 1, "metrics": metrics}


class RepeatReportTest(unittest.TestCase):
    def test_agree_within_every_bound(self):
        lines, agree = run.repeat_report(
            E2E, [result("w", run_wall_s=10.0, peak_rss_mb=100.0)],
            [result("w", run_wall_s=10.9, peak_rss_mb=104.0)])
        self.assertTrue(agree)
        self.assertEqual(len(lines), 3)
        self.assertTrue(all(line.endswith("agree") for line in lines[1:]))

    def test_one_metric_beyond_its_bound(self):
        lines, agree = run.repeat_report(
            E2E, [result("w", run_wall_s=10.0, peak_rss_mb=100.0)],
            [result("w", run_wall_s=10.5, peak_rss_mb=106.0)])
        self.assertFalse(agree)
        self.assertTrue(lines[1].endswith("agree"))
        self.assertTrue(lines[2].endswith("DISAGREE"))

    def test_failed_workload_disagrees_without_raising(self):
        # A workload that fails its correctness check reports no metrics.
        lines, agree = run.repeat_report(
            E2E, [result("w", run_wall_s=10.0, peak_rss_mb=100.0)],
            [result("w", correct=False)])
        self.assertFalse(agree)
        for line in lines[1:]:
            self.assertTrue(line.endswith("DISAGREE"))
            self.assertIn(" - ", line)

    def test_cells_keep_their_width(self):
        self.assertEqual(len(run.cell(None, "12.6g")), 12)
        self.assertEqual(len(run.cell(None, "+8.1%")), 8)
        self.assertEqual(run.cell(0.25, "+8.1%"), "  +25.0%")


class CheckNamesTest(unittest.TestCase):
    SPEC = {"workloads": [{"name": "listed", "why": "-"}],
            "end_to_end": E2E,
            "per_layer": [{"name": "fl.train_ms", "unit": "ms", "better": "lower"},
                          {"name": "fl.step_us_p50", "unit": "us", "better": "lower"}]}

    def test_listed_workload_reports_every_metric(self):
        problems = run.check_names(
            self.SPEC, [result("listed", run_wall_s=1.0, peak_rss_mb=2.0)],
            [result("listed", **{"fl.train_ms": 3.0})])
        self.assertEqual(len(problems), 1)
        self.assertIn("fl.step_us_p50", problems[0])

    def test_unlisted_workload_may_report_a_subset(self):
        problems = run.check_names(
            self.SPEC, [result("other", run_wall_s=1.0, peak_rss_mb=2.0)],
            [result("other", **{"fl.train_ms": 3.0})])
        self.assertEqual(problems, [])

    def test_zero_reading_is_a_problem(self):
        problems = run.check_names(
            self.SPEC, [result("listed", run_wall_s=0.0, peak_rss_mb=2.0)], [])
        self.assertEqual(problems, ["listed: metrics reading 0: ['run_wall_s']"])


if __name__ == "__main__":
    unittest.main()
