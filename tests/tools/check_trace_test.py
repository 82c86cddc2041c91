#!/usr/bin/env python3
"""Exit-code contract tests for tools/check_trace.py.

The checker distinguishes three outcomes so harnesses can tell a producer
that never wrote a trace apart from a tracer that wrote a wrong one:
  0  valid trace
  1  structurally invalid trace (semantic validation failure)
  2  UNREADABLE: missing / empty / non-UTF-8 / truncated-JSON / zero events

Run directly (python3 tests/tools/check_trace_test.py) or via ctest.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
CHECKER = os.path.join(REPO_ROOT, "tools", "check_trace.py")


def run_checker(path, *extra):
    proc = subprocess.run(
        [sys.executable, CHECKER, path, *extra],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def span(name, ts=0.0, dur=1.0, pid=1, tid=0, cat="virtual", args=None):
    ev = {"name": name, "ph": "X", "ts": ts, "dur": dur,
          "pid": pid, "tid": tid, "cat": cat}
    if args is not None:
        ev["args"] = args
    return ev


class CheckTraceCase(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="check_trace_fixture_")
        self.dir = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def write_raw(self, text):
        path = os.path.join(self.dir, "trace.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return path

    def write_bytes(self, data):
        path = os.path.join(self.dir, "trace.json")
        with open(path, "wb") as f:
            f.write(data)
        return path

    def write_events(self, events):
        return self.write_raw(json.dumps({"traceEvents": events}))


class UnreadableTraces(CheckTraceCase):
    def test_missing_file_exits_2(self):
        code, out = run_checker(os.path.join(self.dir, "nope.json"))
        self.assertEqual(code, 2, out)
        self.assertIn("UNREADABLE", out)

    def test_empty_file_exits_2(self):
        code, out = run_checker(self.write_raw(""))
        self.assertEqual(code, 2, out)
        self.assertIn("UNREADABLE", out)

    def test_whitespace_only_exits_2(self):
        code, out = run_checker(self.write_raw("  \n\t\n"))
        self.assertEqual(code, 2, out)
        self.assertIn("UNREADABLE", out)

    def test_truncated_json_exits_2(self):
        # A producer killed mid-flush leaves a cut-off array.
        code, out = run_checker(
            self.write_raw('{"traceEvents": [{"name": "round", "ph": "X"'))
        self.assertEqual(code, 2, out)
        self.assertIn("UNREADABLE", out)

    def test_non_utf8_exits_2(self):
        code, out = run_checker(self.write_bytes(b"\xff\xfe{"))
        self.assertEqual(code, 2, out)
        self.assertIn("UNREADABLE", out)
        self.assertNotIn("Traceback", out)

    def test_zero_events_exits_2(self):
        code, out = run_checker(self.write_events([]))
        self.assertEqual(code, 2, out)
        self.assertIn("UNREADABLE", out)


class InvalidTraces(CheckTraceCase):
    def test_negative_duration_exits_1(self):
        code, out = run_checker(
            self.write_events([span("round", dur=-5.0)]))
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL", out)

    def test_orphan_end_exits_1(self):
        code, out = run_checker(self.write_events([
            {"name": "round", "ph": "E", "ts": 1.0, "pid": 1, "tid": 0},
        ]))
        self.assertEqual(code, 1, out)

    def test_shared_clock_domain_pid_exits_1(self):
        code, out = run_checker(self.write_events([
            span("a", pid=0, cat="wall"),
            span("b", ts=2.0, pid=0, cat="virtual"),
        ]))
        self.assertEqual(code, 1, out)

    def test_missing_expected_name_exits_1(self):
        code, out = run_checker(
            self.write_events([span("round")]), "--expect", "fault.crash")
        self.assertEqual(code, 1, out)


class ValidTraces(CheckTraceCase):
    def test_minimal_valid_trace_exits_0(self):
        code, out = run_checker(self.write_events([span("round")]))
        self.assertEqual(code, 0, out)
        self.assertIn("check_trace: OK", out)

    def test_fault_instant_with_client_arg_exits_0(self):
        code, out = run_checker(self.write_events([
            span("round"),
            {"name": "fault.crash", "ph": "i", "ts": 2.0, "pid": 1,
             "tid": 0, "cat": "virtual", "args": {"client": 3}},
        ]), "--expect", "fault.crash")
        self.assertEqual(code, 0, out)


if __name__ == "__main__":
    unittest.main()
