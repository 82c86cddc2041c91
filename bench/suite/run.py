#!/usr/bin/env python3
"""Host-time benchmark suite for fedca: build, run, check, report.

Builds the fedca_suite harness from source (bench/suite/CMakeLists.txt, into
.bench_build/suite), runs the suite's workloads, checks every repetition's
virtual outputs, and prints every metric by name and unit. Metric names,
units and regression bounds live in BENCHMARK.json at the repository root.

One workload, one JSON result as the last line of stdout:
    python3 bench/suite/run.py --workload W --seed N --seconds S --trace 0|1
  --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
  (and writes results/bench_suite/W.trace.json).

The whole suite:
    python3 bench/suite/run.py [--seed 42] [--workloads a,b] [--traced]
                               [--explain] [--repeat-check] [--smoke]
  --traced        also run the traced set and print the per-layer metrics;
  --explain       per workload, where the round went (implies --traced);
  --repeat-check  run the untraced set twice and say, per metric and
                  workload, whether the two medians agree within the bound;
  --smoke         tiny workloads, one rep, and self-checks of names, units,
                  the trace and traced/untraced output identity (ctest).

Correctness: every rep's virtual outputs must equal the other reps' and, at
the default seed, the pins in bench/suite/expected.json, and a replay of the
first rounds must reproduce the first rep's round records. A mismatching rep
counts as failed, is left out of the timings, and makes the command exit 1.
Exit 2 refuses a debug build of the harness. --build DIR names the harness
build directory.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
DEFAULT_SEED = 42
WORKLOADS = ("tta_cnn_fedca", "tta_lstm_fedavg", "pop_1m_fedsgd", "async_cnn")
HARNESS_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Top-level phases of a round, in order (see bench/suite/timing.hpp).
ROUND_PHASES = ("plan", "select", "train", "server", "observe", "eval")
# What a client's time on its worker thread is made of.
CLIENT_PHASES = ("materialize", "step", "policy", "finalize", "upload")


class SuiteError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build(build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(SUITE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise SuiteError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(build_dir), "--target", "fedca_suite", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise SuiteError("build failed")
    return build_dir / "fedca_suite"


def run_harness(binary, **kv):
    # The harness sees only generated key=value inputs: every FEDCA_* knob
    # is stripped so the libraries run at their defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("FEDCA_")}
    cmd = [str(binary)] + [f"{k}={v}" for k, v in kv.items()]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise SuiteError(f"harness timed out: {' '.join(cmd)}") from e
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SuiteError(f"harness failed ({proc.returncode}): {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(binary):
    probe = run_harness(binary, mode="probe")
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return {"git_sha": sha, "build_type": probe["build_type"],
            "simd_tier": probe["simd_tier"], "nproc": os.cpu_count(),
            "loadavg_before": os.getloadavg()}


# --- correctness -------------------------------------------------------------

def signature(rep):
    """Everything a rep computes that must not depend on timing."""
    sig = dict(rep["outputs"])
    for key in ("steps", "wasted_steps", "eager_layers", "retransmitted_layers"):
        sig[key] = str(rep[key])
    return sig


def check_reps(workload, reps, pins):
    """One bool per rep: equal to the pins (when given) and to the others."""
    reference = pins if pins is not None else signature(reps[0])
    oks = []
    for i, rep in enumerate(reps):
        sig = signature(rep)
        ok = sig == reference
        if not ok:
            diff = {k: (sig.get(k), reference.get(k)) for k in set(sig) | set(reference)
                    if sig.get(k) != reference.get(k)}
            kind = "traced" if rep["traced"] else "untraced"
            log(f"{workload}: rep {i} ({kind}) mismatch (got, expected): {diff}")
        oks.append(ok)
    return oks


def load_pins(workload, seed, smoke):
    if smoke or seed != DEFAULT_SEED:
        return None
    pins = json.loads((SUITE / "expected.json").read_text())
    if workload not in pins:
        raise SuiteError(f"expected.json has no pins for {workload}")
    return pins[workload]


# --- metrics -----------------------------------------------------------------

def e2e_metrics(doc, reps):
    setups = [r["setup_s"] for r in reps] + doc["extra_setup_s"]
    rounds = stats.summarize([ms for r in reps for ms in r["round_ms"]])
    log(f"{doc['workload']}: round_ms over n={rounds['n']} rounds")
    return {
        "setup_s": statistics.median(setups),
        "run_wall_s": statistics.median(r["wall_s"] for r in reps),
        "round_ms_p50": rounds["p50"],
        "round_ms_p90": rounds["p90"],
        "steps_per_s": statistics.median(r["steps"] / r["wall_s"] for r in reps),
        "peak_rss_mb": doc["peak_rss_kb"] * 1024 / 1e6,
    }


def round_phases(spans):
    """round -> {phase: total us} for the round's children, plus "round"."""
    table = {}
    for span in spans:
        if span["name"] == "round" or span["parent"] == "round":
            row = table.setdefault(span["round"], {})
            row[span["name"]] = row.get(span["name"], 0.0) + span["end"] - span["start"]
    return table


def layer_metrics(doc, untraced, traced, spans):
    """Per-layer metrics of one traced run: only those the workload produces.

    The round engine's client hooks give the fl.* client phases and core.*;
    the async engine has no hooks, so it reports only its round phases, the
    step count and the probes. No metric is reported as a stand-in 0.
    """
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span["end"] - span["start"])
    phases = round_phases(spans)
    # A phase's median over the rounds that have it (async evaluates once).
    per_round = {p: [row[p] for row in phases.values() if p in row] for p in ROUND_PHASES}
    rep = traced[0]
    m = {
        "fl.train_ms": statistics.median(per_round["train"]) / 1e3,
        "fl.eval_ms": statistics.median(per_round["eval"]) / 1e3,
        "fl.steps_per_round": rep["steps"] / len(rep["round_ms"]),
        "obs.hook_overhead_share":
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in untraced) - 1.0,
    }
    m.update(doc["probes"])
    client = by_name.get("client")
    if not client:
        return m
    policy = [d for name, ds in by_name.items() if name.startswith("policy.") for d in ds]
    after_iteration = by_name["policy.after_iteration"]
    m.update({
        "fl.select_ms": statistics.median(per_round["select"]) / 1e3,
        "fl.server_ms": statistics.median(per_round["server"]) / 1e3,
        "fl.client_ms_p50": stats.percentile(client, 50) / 1e3,
        "fl.client_ms_p90": stats.percentile(client, 90) / 1e3,
        "fl.materialize_us": statistics.median(by_name["materialize"]),
        "fl.step_us_p50": stats.percentile(by_name["step"], 50),
        "fl.step_us_p90": stats.percentile(by_name["step"], 90),
        "fl.finalize_us": statistics.median(by_name["finalize"]),
        "fl.upload_us": statistics.median(by_name["upload"]),
        "fl.worker_busy_share": sum(client) / (sum(per_round["train"]) * doc["workers"]),
        "fl.wasted_step_share": rep["wasted_steps"] / rep["steps"],
        "core.plan_round_us": statistics.median(by_name["plan"]),
        "core.observe_round_us": statistics.median(by_name["observe"]),
        "core.round_start_us": statistics.median(by_name["policy.round_start"]),
        "core.after_iteration_us_p50": stats.percentile(after_iteration, 50),
        "core.after_iteration_us_p90": stats.percentile(after_iteration, 90),
        "core.retransmissions_us": statistics.median(by_name["policy.retransmissions"]),
        "core.round_end_us": statistics.median(by_name["policy.round_end"]),
        "core.policy_share": sum(policy) / sum(client),
    })
    return m


# --- one workload ------------------------------------------------------------

def trace_path(workload, smoke):
    out = ROOT / "results" / "bench_suite" / ("smoke" if smoke else "")
    out.mkdir(parents=True, exist_ok=True)
    return out / f"{workload}.trace.json"


def measure(binary, workload, seed, seconds, traced, smoke=False):
    """Runs one workload; returns its result dict (see the module doc)."""
    kv = {"mode": "run", "workload": workload, "seed": seed, "seconds": seconds,
          "traced": int(traced), "smoke": int(smoke)}
    if traced:
        kv["trace_out"] = trace_path(workload, smoke)
    doc = run_harness(binary, **kv)
    reps = doc["reps"]
    oks = check_reps(workload, reps, load_pins(workload, seed, smoke))
    if not doc["prefix_ok"]:
        log(f"{workload}: replaying the first rounds did not reproduce rep 0")
        oks = [False] * len(reps)
    good_untraced = [r for r, ok in zip(reps, oks) if ok and not r["traced"]]
    good_traced = [r for r, ok in zip(reps, oks) if ok and r["traced"]]
    result = {"workload": workload, "attempted": len(reps), "failed": oks.count(False),
              "metrics": {}, "doc": doc}
    if not traced and good_untraced:
        result["metrics"] = e2e_metrics(doc, good_untraced)
    if traced and good_untraced and good_traced:
        result["spans"] = stats.spans_from_trace(json.loads(kv["trace_out"].read_text()))
        result["metrics"] = layer_metrics(doc, good_untraced, good_traced, result["spans"])
    result["correct"] = result["failed"] == 0 and bool(result["metrics"])
    return result


def with_units(metrics, spec_list):
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in spec_list if m["name"] in metrics}


# --- reports -----------------------------------------------------------------

def cell(value, spec):
    """`value` formatted by `spec`, or a right-aligned "-" when it is missing."""
    return f"{'-':>{len(format(0.0, spec))}}" if value is None else format(value, spec)


def print_table(title, spec_list, results):
    names = [r["workload"] for r in results]
    print(f"\n{title}")
    print(f"{'metric':34} {'unit':8} " + " ".join(f"{n:>16}" for n in names))
    for m in spec_list:
        cells = " ".join(cell(r["metrics"].get(m["name"]), "16.6g") for r in results)
        print(f"{m['name']:34} {m['unit']:8} {cells}")
    shares = " ".join(f"{r['failed'] / r['attempted']:16.6g}" for r in results)
    print(f"{'fail_share':34} {'share':8} {shares}")


def explain(result, workers):
    """Where the round went, reconciled two ways. Returns True if both hold."""
    spans, m, name = result["spans"], result["metrics"], result["workload"]
    phases = round_phases(spans)
    # The train phase in wall-clock terms: client-side phases summed over
    # clients and divided by the workers, plus what is left (dispatch and
    # idle workers).
    sub_rows = CLIENT_PHASES + ("client other", "idle + dispatch")
    train = {r: dict.fromkeys(sub_rows + ("clients",), 0.0) for r in phases}
    for span, self_us in zip(spans, stats.self_times(spans)):
        row = train.get(span["round"])
        if row is None:
            continue
        dur = span["end"] - span["start"]
        if span["parent"] == "client":
            row["policy" if span["name"].startswith("policy.") else span["name"]] += dur / workers
        elif span["name"] == "client":
            row["clients"] += dur / workers
            row["client other"] += self_us / workers
    for r, row in train.items():
        row["idle + dispatch"] = phases[r].get("train", 0.0) - row["clients"]
    round_times = [row["round"] for row in phases.values()]
    round_p50 = stats.percentile(round_times, 50)

    print(f"\n{name}: where the round went (traced rep, {len(phases)} rounds, "
          f"round p50 {round_p50 / 1e3:.2f} ms, IQR {stats.iqr_share(round_times):.0%} "
          f"of it; train rows are wall-equivalent at {workers} worker(s))")
    print(f"  {'phase':22} {'self ms':>10} {'share':>8}")
    total = 0.0
    for p in ROUND_PHASES:
        med = statistics.median(row.get(p, 0.0) for row in phases.values())
        total += med
        print(f"  {p:22} {med / 1e3:10.3f} {med / round_p50:8.1%}")
        if p == "train" and "fl.step_us_p50" in m:
            for q in sub_rows:
                med_q = statistics.median(row[q] for row in train.values())
                print(f"    {q:20} {med_q / 1e3:10.3f} {med_q / round_p50:8.1%}")
    print(f"  {'sum of phases':22} {total / 1e3:10.3f} {total / round_p50:8.1%}")
    ok_round = abs(total - round_p50) <= 0.05 * round_p50
    print(f"  phases vs round p50: {total / round_p50 - 1:+.1%} "
          f"({'ok' if ok_round else 'FAIL'}, limit 5%)")
    ok_step = True
    if "fl.step_us_p50" in m:
        probe_sum = sum(v for k, v in m.items()
                        if k.startswith("nn.") and k.endswith(("fwd_us", "bwd_us")))
        probe_sum += m["nn.loss_us"] + m["nn.sgd_step_us"]
        ok_step = abs(probe_sum - m["fl.step_us_p50"]) <= 0.15 * m["fl.step_us_p50"]
        print(f"  nn probes (fwd+bwd+loss+sgd_step) {probe_sum:.1f} us vs fl.step_us_p50 "
              f"{m['fl.step_us_p50']:.1f} us: {probe_sum / m['fl.step_us_p50'] - 1:+.1%} "
              f"({'ok' if ok_step else 'FAIL'}, limit 15%)")
    else:
        print("  nn probes vs SGD step: not applicable (no per-step hooks on this engine)")
    return ok_round and ok_step


def check_names(spec, results_e2e, results_layer):
    """Smoke assertions on the metric contract; returns a list of problems.

    A workload BENCHMARK.json lists reports every metric of the spec; the
    others report a subset of it. No reported metric reads 0.
    """
    problems = []
    e2e, layer = spec["end_to_end"], spec["per_layer"]
    if len(e2e) > 16 or len(layer) > 128:
        problems.append(f"metric counts {len(e2e)}/{len(layer)} exceed 16/128")
    for m in e2e + layer:
        if not NAME_RE.match(m["name"]) or not UNIT_RE.match(m["unit"]):
            problems.append(f"bad metric name or unit {m['name']!r} {m['unit']!r}")
    listed = {w["name"] for w in spec["workloads"]}
    for results, spec_list in ((results_e2e, e2e), (results_layer, layer)):
        names = {m["name"] for m in spec_list}
        for r in results:
            got = set(r["metrics"])
            wrong = names ^ got if r["workload"] in listed else got - names
            if wrong:
                problems.append(f"{r['workload']}: metrics not matching the spec: "
                                f"{sorted(wrong)}")
            zeros = sorted(k for k, v in r["metrics"].items() if v == 0)
            if zeros:
                problems.append(f"{r['workload']}: metrics reading 0: {zeros}")
    return problems


def smoke(binary, spec):
    results_e2e, results_layer, problems = [], [], []
    for w in WORKLOADS:
        untraced = measure(binary, w, DEFAULT_SEED, 0, False, smoke=True)
        traced = measure(binary, w, DEFAULT_SEED, 0, True, smoke=True)
        results_e2e.append(untraced)
        results_layer.append(traced)
        if not (untraced["correct"] and traced["correct"]):
            problems.append(f"{w}: a rep failed its correctness check")
        sigs = {json.dumps(signature(r), sort_keys=True)
                for r in untraced["doc"]["reps"] + traced["doc"]["reps"]}
        if len(sigs) != 1:
            problems.append(f"{w}: traced and untraced virtual outputs differ")
        expect = ["round", "train"] if w == "async_cnn" else ["round", "client", "step"]
        cmd = [sys.executable, str(ROOT / "tools" / "check_trace.py"),
               str(trace_path(w, True))]
        for e in expect:
            cmd += ["--expect", e]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            problems.append(f"{w}: trace failed check_trace.py")
    problems += check_names(spec, results_e2e, results_layer)
    print_table("end-to-end (smoke)", spec["end_to_end"], results_e2e)
    print_table("per-layer (smoke)", spec["per_layer"], results_layer)
    for p in problems:
        print(f"FAIL: {p}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def repeat_report(e2e, first_set, second_set):
    """Table lines comparing two untraced sets, and whether they all agree.

    A (workload, metric) pair agrees when both sets measured it and the
    second median is within the metric's bound of the first. A workload
    that failed its correctness check in either set has no metrics, and
    every one of its rows disagrees.
    """
    lines = [f"{'workload':16} {'metric':14} {'first':>12} {'second':>12} {'change':>8} "
             f"{'bound':>6}  verdict"]
    agree = True
    for first, second in zip(first_set, second_set):
        for m in e2e:
            a, b = first["metrics"].get(m["name"]), second["metrics"].get(m["name"])
            measured = a is not None and b is not None
            ok = measured and first["correct"] and second["correct"] \
                and abs(b - a) <= m["bound"] * abs(a)
            agree &= ok
            change = (b - a) / a if measured and a else None
            lines.append(f"{first['workload']:16} {m['name']:14} {cell(a, '12.6g')} "
                         f"{cell(b, '12.6g')} {cell(change, '+8.1%')} {m['bound']:6.2f}  "
                         f"{'agree' if ok else 'DISAGREE'}")
    return lines, agree


def repeat_check(binary, spec, workloads, seed, seconds):
    runs = [[measure(binary, w, seed, seconds, False) for w in workloads]
            for _ in range(2)]
    print(f"\nrepeat check: two untraced sets, seed {seed}")
    lines, agree = repeat_report(spec["end_to_end"], *runs)
    print("\n".join(lines))
    return agree


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run one workload and print its JSON result")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, help="measured seconds per workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--explain", action="store_true")
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--build", type=Path, default=ROOT / ".bench_build" / "suite",
                        help="harness build directory")
    args = parser.parse_args()

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    binary = build(args.build.resolve())
    prov = provenance(binary)
    if prov["build_type"] != "release":
        log(f"error: refusing to measure a '{prov['build_type']}' build "
            "(rebuild with NDEBUG: Release or RelWithDebInfo)")
        return 2

    if args.workload:
        if args.workload not in WORKLOADS:
            raise SuiteError(f"unknown workload {args.workload!r}")
        log(f"provenance: {json.dumps(prov)}")
        r = measure(binary, args.workload, args.seed, seconds, bool(args.trace))
        log(f"loadavg after: {os.getloadavg()}")
        spec_list = spec["per_layer"] if args.trace else spec["end_to_end"]
        out = {"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"],
               "metrics": with_units(r["metrics"], spec_list) if r["metrics"] else {}}
        print(json.dumps(out))
        return 0 if r["correct"] else 1

    if args.smoke:
        return smoke(binary, spec)

    workloads = [w for w in args.workloads.split(",") if w]
    for w in workloads:
        if w not in WORKLOADS:
            raise SuiteError(f"unknown workload {w!r}")
    print("provenance: " + json.dumps(prov))
    started = time.monotonic()
    if args.repeat_check:
        ok = repeat_check(binary, spec, workloads, args.seed, seconds)
        print(f"loadavg after: {os.getloadavg()}  ({time.monotonic() - started:.0f} s)")
        return 0 if ok else 1
    untraced = [measure(binary, w, args.seed, seconds, False) for w in workloads]
    print_table("end-to-end (untraced)", spec["end_to_end"], untraced)
    results = untraced
    explained = True
    if args.traced or args.explain:
        traced = [measure(binary, w, args.seed, seconds, True) for w in workloads]
        print_table("per-layer (traced)", spec["per_layer"], traced)
        results = untraced + traced
        if args.explain:
            workers = traced[0]["doc"]["workers"]
            for r in traced:
                if r["correct"]:
                    explained &= explain(r, workers)
    print(f"loadavg after: {os.getloadavg()}  ({time.monotonic() - started:.0f} s)")
    return 0 if all(r["correct"] for r in results) and explained else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SuiteError as e:
        log(f"error: {e}")
        sys.exit(1)
