"""Statistics helpers for the benchmark suite (run.py).

* percentile / summarize: order statistics with the sample count kept
  beside them, so a p90 over ten samples is never mistaken for a stable one;
* iqr_share: the run-to-run spread (interquartile range over the median)
  by the same rule as statistics.quantiles(values, n=4);
* self_times: a span's duration minus the part of it its children cover.
  Children may overlap one another (clients training on parallel worker
  threads), so covered time is the length of the union of their
  intervals, clipped to the parent.

A span is a dict with name, parent, start, end, round and client. Its
children are the spans whose `parent` is its name, in the same round and,
when the parent is client-scoped (client >= 0), for the same client.
"""

import statistics
from collections import defaultdict


def percentile(values, q):
    """q-th percentile (0..100) by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarize(values):
    """{"p50", "p90", "n"} of a sample."""
    return {"p50": percentile(values, 50), "p90": percentile(values, 90), "n": len(values)}


def iqr_share(values):
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(values, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def union_length(intervals, lo, hi):
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_times(spans):
    """Self time of every span, in the order given."""
    # Children by (parent name, round), and by (parent name, round, client)
    # for client-scoped parents.
    by_round = defaultdict(list)
    by_client = defaultdict(list)
    for span in spans:
        if span["parent"]:
            by_round[(span["parent"], span["round"])].append(span)
            by_client[(span["parent"], span["round"], span["client"])].append(span)
    out = []
    for span in spans:
        if span["client"] >= 0:
            kids = by_client.get((span["name"], span["round"], span["client"]), [])
        else:
            kids = by_round.get((span["name"], span["round"]), [])
        covered = union_length([(k["start"], k["end"]) for k in kids],
                               span["start"], span["end"])
        out.append(span["end"] - span["start"] - covered)
    return out


def spans_from_trace(doc):
    """Spans of a fedca_suite Chrome trace, times in microseconds."""
    spans = []
    for ev in doc["traceEvents"]:
        if ev.get("ph") != "X":
            continue
        args = ev["args"]
        spans.append({
            "name": ev["name"],
            "parent": args["parent"],
            "start": ev["ts"],
            "end": ev["ts"] + ev["dur"],
            "round": args["round"],
            "client": args["client"],
        })
    return spans
