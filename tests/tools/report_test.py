#!/usr/bin/env python3
"""Exit-code contract tests for tools/report.py.

  0  valid report
  1  structurally invalid report
  2  UNREADABLE: missing / empty / non-UTF-8 / a line that is not JSON

Diagnostics number report lines from 1.

Run directly (python3 tests/tools/report_test.py) or via ctest.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
REPORT = os.path.join(REPO_ROOT, "tools", "report.py")


def run_report(path):
    proc = subprocess.run([sys.executable, REPORT, path], capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def round_line(index):
    """One valid round line: a single collected client."""
    return json.dumps({
        "type": "round", "round": index, "start": 0.0, "end": 1.0,
        "participants": 1, "collected": 1, "shed": 0, "timed_out": 0,
        "crashed": 0, "dropout": 0, "link_outage": 0, "stragglers": 0,
        "eager_bytes": 0, "early_stops": 0, "eager_layers": 0,
        "deadline_overrun": False,
        "clients": [{"outcome": "collected", "weight": 1.0, "eager_bytes": 0,
                     "bytes_sent": 10}],
    })


class ReportCase(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="report_fixture_")
        self.path = os.path.join(self._tmp.name, "r.jsonl")

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, data):
        with open(self.path, "wb") as f:
            f.write(data if isinstance(data, bytes) else data.encode("utf-8"))
        return self.path

    def assert_unreadable(self, code, out):
        self.assertEqual(code, 2, out)
        self.assertIn("UNREADABLE", out)
        self.assertNotIn("Traceback", out)

    def test_valid_report_exits_0(self):
        code, out = run_report(self.write(round_line(0) + "\n" + round_line(1) + "\n"))
        self.assertEqual(code, 0, out)
        self.assertIn("report: OK: 2 round lines", out)

    def test_missing_file_exits_2(self):
        self.assert_unreadable(*run_report(os.path.join(self._tmp.name, "nope.jsonl")))

    def test_empty_file_exits_2(self):
        self.assert_unreadable(*run_report(self.write("")))

    def test_truncated_line_exits_2(self):
        # A producer killed mid-write leaves the last line cut off.
        code, out = run_report(self.write(round_line(0) + "\n" + round_line(1)[:40]))
        self.assert_unreadable(code, out)
        self.assertIn("line 2 is not JSON", out)

    def test_non_utf8_exits_2(self):
        self.assert_unreadable(*run_report(self.write(b"\xff\xfe{")))

    def test_first_line_error_says_line_1(self):
        code, out = run_report(self.write("{not json\n" + round_line(0) + "\n"))
        self.assert_unreadable(code, out)
        self.assertIn("line 1 is not JSON", out)

    def test_invalid_first_line_exits_1_naming_line_1(self):
        code, out = run_report(self.write(json.dumps({"type": "bogus"}) + "\n"))
        self.assertEqual(code, 1, out)
        self.assertIn("line 1: unknown type", out)


if __name__ == "__main__":
    unittest.main()
