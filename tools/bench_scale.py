#!/usr/bin/env python3
"""Scale benchmark runner: drives bench/scale_harness across population
sizes (1k / 10k / 100k / 1M virtual clients, availability dynamics on) and
writes BENCH_scale.json (checked in at the repo root).

Gates (exit 1 on failure):
  * the 1M-client 10-round sweep must stay under 2 GB peak RSS;
  * the 1M-client sweep must hold at most 112 bytes of live client state
    per client (live_client_bytes / clients). The harness sums that figure
    from container capacities, not RSS, so it does not drift with the host.

Provenance: the harness reports its build_type; a debug build is refused
with exit 2 so checked-in numbers always come from an optimized build.

Usage:
    python3 tools/bench_scale.py [--build build] [--out BENCH_scale.json]
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

SWEEP_CLIENTS = (1_000, 10_000, 100_000, 1_000_000)
RSS_LIMIT_BYTES = 2 * 1024**3
BYTES_PER_CLIENT_LIMIT = 112.0


def run_harness(binary: Path, **kv) -> dict:
    cmd = [str(binary)] + [f"{k}={v}" for k, v in kv.items()]
    print("+ " + " ".join(cmd), file=sys.stderr)
    run = subprocess.run(cmd, capture_output=True, text=True)
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        raise RuntimeError(f"scale_harness failed: {' '.join(cmd)}")
    return json.loads(run.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build", default="build", help="CMake build directory")
    parser.add_argument("--out", default="BENCH_scale.json", help="output path")
    parser.add_argument("--rounds", type=int, default=10,
                        help="measured rounds per sweep point")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    binary = root / args.build / "bench" / "scale_harness"
    if not binary.exists():
        print(f"error: {binary} not built", file=sys.stderr)
        return 1

    probe = run_harness(binary, mode="probe")
    if probe.get("build_type") != "release":
        print(
            f"error: refusing to record numbers from a "
            f"'{probe.get('build_type')}' build — rebuild with NDEBUG "
            "(Release/RelWithDebInfo) and rerun",
            file=sys.stderr,
        )
        return 2

    sweep = {}
    for clients in SWEEP_CLIENTS:
        result = run_harness(binary, mode="sweep", clients=clients,
                             rounds=args.rounds)
        sweep[f"clients_{clients}"] = result
        print(
            f"  {clients:>9} clients: {result['rounds_per_sec']:.2f} rounds/s, "
            f"peak RSS {result['peak_rss_bytes'] / 1024**2:.0f} MB",
            file=sys.stderr,
        )

    million = sweep["clients_1000000"]
    bytes_per_client = round(million["live_client_bytes"] / million["clients"], 1)
    print(f"  live client state at 1M: {bytes_per_client:.1f} B/client",
          file=sys.stderr)

    out = {
        "description": "Million-client scale-out: population sweep "
                       "(fixed sampled cohort, availability dynamics on) "
                       "with wall-clock rounds/sec, peak RSS and live "
                       "client-state bytes per population size.",
        "build_type": probe.get("build_type"),
        "rounds": args.rounds,
        "sweep": sweep,
        "bytes_per_client_1m": bytes_per_client,
    }
    out_path = root / args.out
    out_path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}", file=sys.stderr)

    failed = False
    if million["peak_rss_bytes"] >= RSS_LIMIT_BYTES:
        print(
            f"FAIL: 1M-client sweep peak RSS {million['peak_rss_bytes']} "
            f"exceeds the {RSS_LIMIT_BYTES} byte (2 GB) acceptance limit",
            file=sys.stderr,
        )
        failed = True
    if bytes_per_client > BYTES_PER_CLIENT_LIMIT:
        print(
            f"FAIL: 1M-client sweep holds {bytes_per_client} B of live "
            f"client state per client, above the {BYTES_PER_CLIENT_LIMIT} B "
            "limit",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
