#!/usr/bin/env python3
"""Validate, summarize, and digest a fedca run_report.jsonl file.

The round engines append one JSON object per line ("type":"round" with an
embedded per-client outcome array, or "type":"async_update" for the async
engine). Everything is measured on the virtual clock, so a report is
bit-reproducible for a given seed — this script's sha256 digest is stable
across machines and worker counts, which is what the committed goldens
under tests/golden/ rely on.

Checks:
  * every line parses as a JSON object with a known "type";
  * round lines: participants == len(clients), the outcome tallies
    (collected/shed/timed_out/crashed/dropout/link_outage) sum to the
    participant count and match the per-client outcome strings;
  * per-client outcomes come from the legal vocabulary, weights are
    non-negative, and collected weights sum to ~1 when anything was
    collected;
  * straggler flags match the reported straggler count, and every
    straggler's duration >= straggler_threshold;
  * eager byte accounting: per-client eager_bytes is non-negative and
    never exceeds bytes_sent, and the round-level eager_bytes matches the
    sum over clients (relative tolerance — values are serialized at %.10g,
    so the stored sum and a recomputed sum differ in the last digit);
  * round indices strictly increase within a run segment (a reset to 0
    starts a new segment — one file may hold several back-to-back runs);
    same for async update indices; lost async updates carry weight 0 and
    a loss outcome.

Usage:
  report.py REPORT.jsonl [--summary] [--digest] [--golden FILE]

--golden FILE compares sha256(report bytes) against the hex digest stored
in FILE (first whitespace-separated token), failing with exit 1 on
mismatch.

Exit codes (mirroring check_trace.py):
  0  report is valid (and matches the golden, when given)
  1  report is structurally invalid or the golden digest differs
  2  report is UNREADABLE: missing, empty, or a line is not JSON
"""

import argparse
import hashlib
import json
import sys

EXIT_INVALID = 1
EXIT_UNREADABLE = 2

CLIENT_OUTCOMES = {
    "collected",
    "shed",
    "timed_out",
    "crashed",
    "dropout",
    "link_outage",
}
ASYNC_OUTCOMES = {"applied", "crash", "dropout", "link_outage", "timeout"}
TALLY_OF_OUTCOME = {
    "collected": "collected",
    "shed": "shed",
    "timed_out": "timed_out",
    "crashed": "crashed",
    "dropout": "dropout",
    "link_outage": "link_outage",
}


def fail(msg):
    print(f"report: FAIL: {msg}", file=sys.stderr)
    sys.exit(EXIT_INVALID)


def unreadable(msg):
    print(f"report: UNREADABLE: {msg}", file=sys.stderr)
    sys.exit(EXIT_UNREADABLE)


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_round(i, obj):
    clients = obj.get("clients")
    if not isinstance(clients, list):
        fail(f"line {i}: round without a clients array")
    if obj.get("participants") != len(clients):
        fail(
            f"line {i}: participants {obj.get('participants')} != "
            f"len(clients) {len(clients)}"
        )
    # Availability fields are optional (emitted only when the population
    # layer is on). When present they must be consistent: offline sampled
    # clients plus the surviving participants never exceed the population.
    population = obj.get("population")
    if population is not None:
        offline = obj.get("offline")
        if not is_number(population) or population < 1:
            fail(f"line {i}: bad population {population!r}")
        if not is_number(offline) or offline < 0:
            fail(f"line {i}: population without a valid offline count")
        if offline + len(clients) > population:
            fail(
                f"line {i}: offline {offline} + participants {len(clients)} "
                f"exceed population {population}"
            )
    elif obj.get("offline") is not None:
        fail(f"line {i}: offline without population")
    tallies = {key: 0 for key in TALLY_OF_OUTCOME.values()}
    stragglers = 0
    collected_weight = 0.0
    eager_bytes = 0.0
    threshold = obj.get("straggler_threshold")
    for j, c in enumerate(clients):
        outcome = c.get("outcome")
        if outcome not in CLIENT_OUTCOMES:
            fail(f"line {i}: client {j} has unknown outcome {outcome!r}")
        tallies[TALLY_OF_OUTCOME[outcome]] += 1
        weight = c.get("weight")
        if not is_number(weight) or weight < 0:
            fail(f"line {i}: client {j} has bad weight {weight!r}")
        if outcome == "collected":
            collected_weight += weight
        elif weight != 0:
            fail(f"line {i}: client {j} is {outcome} but weight {weight} != 0")
        client_eager = c.get("eager_bytes")
        client_sent = c.get("bytes_sent")
        if not is_number(client_eager) or client_eager < 0:
            fail(f"line {i}: client {j} has bad eager_bytes {client_eager!r}")
        # Tiny relative slack: both values were printed at %.10g.
        if is_number(client_sent) and client_eager > client_sent * (1 + 1e-9) + 1e-9:
            fail(
                f"line {i}: client {j} eager_bytes {client_eager} exceeds "
                f"bytes_sent {client_sent}"
            )
        eager_bytes += client_eager
        if c.get("straggler"):
            stragglers += 1
            duration = c.get("duration")
            if is_number(threshold) and is_number(duration) and duration < threshold:
                fail(
                    f"line {i}: straggler client {j} duration {duration} < "
                    f"threshold {threshold}"
                )
    for key, count in tallies.items():
        if obj.get(key) != count:
            fail(
                f"line {i}: tally {key}={obj.get(key)} but client outcomes "
                f"say {count}"
            )
    if sum(tallies.values()) != len(clients):
        fail(f"line {i}: outcome tallies do not cover every client")
    if obj.get("stragglers") != stragglers:
        fail(
            f"line {i}: stragglers={obj.get('stragglers')} but "
            f"{stragglers} clients are flagged"
        )
    round_eager = obj.get("eager_bytes")
    if not is_number(round_eager) or round_eager < 0:
        fail(f"line {i}: round eager_bytes {round_eager!r} invalid")
    if abs(round_eager - eager_bytes) > 1e-6 * max(1.0, abs(eager_bytes)):
        fail(
            f"line {i}: round eager_bytes {round_eager} != client sum "
            f"{eager_bytes}"
        )
    if tallies["collected"] > 0 and abs(collected_weight - 1.0) > 1e-6:
        fail(
            f"line {i}: collected weights sum to {collected_weight}, "
            "expected 1"
        )


def check_async(i, obj):
    outcome = obj.get("outcome")
    if outcome not in ASYNC_OUTCOMES:
        fail(f"line {i}: unknown async outcome {outcome!r}")
    lost = obj.get("lost")
    if lost not in (True, False):
        fail(f"line {i}: async line without a boolean 'lost'")
    if lost != (outcome != "applied"):
        fail(f"line {i}: lost={lost} inconsistent with outcome {outcome!r}")
    weight = obj.get("weight")
    if not is_number(weight) or weight < 0:
        fail(f"line {i}: async weight {weight!r} invalid")
    if lost and weight != 0:
        fail(f"line {i}: lost update carries weight {weight}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", help="run_report.jsonl file")
    parser.add_argument(
        "--summary", action="store_true", help="print a per-round summary table"
    )
    parser.add_argument(
        "--digest", action="store_true", help="print sha256 of the report bytes"
    )
    parser.add_argument(
        "--golden",
        metavar="FILE",
        help="compare sha256 of the report against the digest stored in FILE",
    )
    args = parser.parse_args()

    try:
        with open(args.report, "rb") as f:
            raw = f.read()
    except OSError as e:
        unreadable(f"cannot read {args.report}: {e}")
    if not raw.strip():
        unreadable(f"{args.report} is empty — the producer wrote nothing")

    rounds = 0
    asyncs = 0
    last_round = None
    last_update = None
    summaries = []
    for i, line in enumerate(raw.decode("utf-8").splitlines()):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            unreadable(f"line {i} is not JSON (truncated report?): {e}")
        if not isinstance(obj, dict):
            fail(f"line {i} is not an object")
        kind = obj.get("type")
        if kind == "round":
            index = obj.get("round")
            if not is_number(index):
                fail(f"line {i}: round line without a numeric index")
            # Indices strictly increase within one engine run; a reset to 0
            # starts a new segment (a file concatenated from several runs'
            # reports).
            if last_round is not None and index <= last_round and index != 0:
                fail(f"line {i}: round index {index} does not increase")
            last_round = index
            check_round(i, obj)
            rounds += 1
            summaries.append(obj)
        elif kind == "async_update":
            index = obj.get("update")
            if not is_number(index):
                fail(f"line {i}: async line without a numeric index")
            if last_update is not None and index <= last_update and index != 0:
                fail(f"line {i}: update index {index} does not increase")
            last_update = index
            check_async(i, obj)
            asyncs += 1
        else:
            fail(f"line {i}: unknown type {kind!r}")

    if rounds == 0 and asyncs == 0:
        unreadable(f"{args.report} contains no report lines")

    if args.summary:
        print(
            f"{'round':>5} {'dur':>9} {'deadline':>9} {'coll':>4} {'shed':>4} "
            f"{'fault':>5} {'early':>5} {'eager':>5} {'strag':>5} {'overrun':>7}"
        )
        for obj in summaries:
            duration = obj["end"] - obj["start"]
            deadline = obj.get("deadline")
            faults = obj["crashed"] + obj["dropout"] + obj["link_outage"]
            print(
                f"{obj['round']:>5} {duration:>9.3f} "
                f"{'-' if deadline is None else format(deadline, '.3f'):>9} "
                f"{obj['collected']:>4} {obj['shed']:>4} {faults:>5} "
                f"{obj['early_stops']:>5} {obj['eager_layers']:>5} "
                f"{obj['stragglers']:>5} {str(obj['deadline_overrun']):>7}"
            )

    digest = hashlib.sha256(raw).hexdigest()
    if args.digest:
        print(digest)

    if args.golden:
        try:
            with open(args.golden, "r", encoding="utf-8") as f:
                expected = f.read().split()
        except OSError as e:
            fail(f"cannot read golden {args.golden}: {e}")
        if not expected:
            fail(f"golden {args.golden} is empty")
        if expected[0] != digest:
            fail(
                f"digest mismatch: report {digest} != golden {expected[0]} "
                f"({args.golden})"
            )

    print(
        f"report: OK: {rounds} round lines, {asyncs} async update lines"
        + (f", digest {digest[:12]}…" if args.golden else "")
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
