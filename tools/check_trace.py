#!/usr/bin/env python3
"""Validate a Chrome trace_event JSON file emitted by the fedca tracer.

Checks:
  * the file parses as JSON and is either an event array or an object with
    a "traceEvents" array;
  * every event carries the required keys for its phase, with numeric
    ts/dur/pid/tid;
  * complete ('X') spans have dur >= 0;
  * duration ('B'/'E') events pair up per (pid, tid) with no orphan ends
    and no unclosed begins;
  * per (pid, tid) track, begin timestamps are monotone non-decreasing
    (the writer sorts, so a violation means a serialization bug);
  * the wall-clock domain (pid 0, cat "wall") and the virtual domain
    (pid > 0, cat "virtual") do not share pids;
  * fault-injection events ("fault.*" / "recovery.*") are instants
    ('i'/'I') on a virtual-time pid (never pid 0), and every "fault.*"
    instant names the affected client in its args.

Usage:
  check_trace.py TRACE.json [--expect NAME]...

--expect NAME (repeatable) additionally asserts that at least one span or
instant with that exact name is present.

Exit codes distinguish "the producer never wrote a trace" from "the trace
is wrong", so harnesses (tools/run_all.sh, the robustness tests) can tell a
crashed/truncated run apart from a tracer bug:
  0  trace is valid
  1  trace is structurally invalid (semantic validation failed)
  2  trace is UNREADABLE: file missing, empty, not UTF-8, JSON
     truncated/unparseable, or contains no events at all
"""

import argparse
import collections
import json
import sys

REQUIRED_KEYS = {"name", "ph", "pid", "tid", "ts"}
KNOWN_PHASES = {"X", "B", "E", "i", "I", "M", "C"}

EXIT_INVALID = 1
EXIT_UNREADABLE = 2


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(EXIT_INVALID)


def unreadable(msg):
    print(f"check_trace: UNREADABLE: {msg}", file=sys.stderr)
    sys.exit(EXIT_UNREADABLE)


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="trace JSON file")
    parser.add_argument(
        "--expect",
        action="append",
        default=[],
        metavar="NAME",
        help="require at least one span/instant with this name (repeatable)",
    )
    args = parser.parse_args()

    try:
        with open(args.trace, "r", encoding="utf-8") as f:
            raw = f.read()
    except OSError as e:
        unreadable(f"cannot read {args.trace}: {e}")
    except UnicodeDecodeError as e:
        unreadable(f"{args.trace} is not UTF-8 text: {e}")
    if not raw.strip():
        unreadable(f"{args.trace} is empty — the producer wrote nothing")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        unreadable(f"{args.trace} is not valid JSON (truncated trace?): {e}")

    if isinstance(doc, dict):
        events = doc.get("traceEvents")
        if not isinstance(events, list):
            fail("object form must contain a 'traceEvents' array")
    elif isinstance(doc, list):
        events = doc
    else:
        fail("top-level JSON must be an array or an object")

    if not events:
        unreadable(f"{args.trace} parses but contains no events")

    seen_names = set()
    open_stacks = collections.defaultdict(list)  # (pid, tid) -> [begin names]
    last_ts = {}  # (pid, tid) -> last event ts
    domain_of_pid = {}  # pid -> "wall" | "virtual"

    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(f"event {i} is not an object")
        ph = ev.get("ph")
        if ph == "M":
            # Metadata events need name + pid only.
            if "name" not in ev or "pid" not in ev:
                fail(f"metadata event {i} missing name/pid")
            continue
        missing = REQUIRED_KEYS - ev.keys()
        if missing:
            fail(f"event {i} ({ev.get('name')!r}) missing keys {sorted(missing)}")
        if ph not in KNOWN_PHASES:
            fail(f"event {i} has unknown phase {ph!r}")
        if not is_number(ev["ts"]):
            fail(f"event {i} has non-numeric ts {ev['ts']!r}")
        for key in ("pid", "tid"):
            if not is_number(ev[key]):
                fail(f"event {i} has non-numeric {key}")

        track = (ev["pid"], ev["tid"])
        if ph in ("X", "B", "i", "I"):
            if track in last_ts and ev["ts"] < last_ts[track] - 1e-6:
                fail(
                    f"event {i} ({ev['name']!r}) ts {ev['ts']} goes backwards "
                    f"on track pid={track[0]} tid={track[1]} (last {last_ts[track]})"
                )
            last_ts[track] = ev["ts"]

        if ph == "X":
            dur = ev.get("dur")
            if not is_number(dur):
                fail(f"complete event {i} ({ev['name']!r}) missing numeric dur")
            if dur < 0:
                fail(f"complete event {i} ({ev['name']!r}) has negative dur {dur}")
        elif ph == "B":
            open_stacks[track].append(ev["name"])
        elif ph == "E":
            if not open_stacks[track]:
                fail(
                    f"orphan end event {i} ({ev.get('name')!r}) on track "
                    f"pid={track[0]} tid={track[1]}"
                )
            open_stacks[track].pop()

        cat = ev.get("cat")
        if cat in ("wall", "virtual"):
            prev = domain_of_pid.setdefault(ev["pid"], cat)
            if prev != cat:
                fail(
                    f"pid {ev['pid']} carries both '{prev}' and '{cat}' events — "
                    "clock domains must not share pids"
                )
            if cat == "wall" and ev["pid"] != 0:
                fail(f"wall-clock event {i} ({ev['name']!r}) outside pid 0")
            if cat == "virtual" and ev["pid"] == 0:
                fail(f"virtual event {i} ({ev['name']!r}) on the wall-clock pid")

        name = ev["name"]
        if isinstance(name, str) and (
            name.startswith("fault.") or name.startswith("recovery.")
        ):
            if ph not in ("i", "I"):
                fail(
                    f"event {i} ({name!r}) must be an instant ('i'/'I'), "
                    f"got phase {ph!r}"
                )
            if ev["pid"] == 0:
                fail(f"event {i} ({name!r}) on the wall-clock pid — fault/"
                     "recovery instants live in virtual time")
            if name.startswith("fault."):
                trace_args = ev.get("args")
                if not isinstance(trace_args, dict) or "client" not in trace_args:
                    fail(f"event {i} ({name!r}) missing 'client' in args")

        seen_names.add(ev["name"])

    for track, stack in open_stacks.items():
        if stack:
            fail(
                f"unclosed begin events {stack} on track pid={track[0]} "
                f"tid={track[1]}"
            )

    missing = [name for name in args.expect if name not in seen_names]
    if missing:
        fail(f"expected span names not found: {missing} (have {sorted(seen_names)[:20]})")

    n_spans = sum(1 for ev in events if ev.get("ph") == "X")
    print(
        f"check_trace: OK: {len(events)} events ({n_spans} spans, "
        f"{len({e['pid'] for e in events if 'pid' in e})} processes)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
