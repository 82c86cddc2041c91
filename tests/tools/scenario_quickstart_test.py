#!/usr/bin/env python3
"""Acceptance check: a scenario file alone reproduces the faultfree
quickstart byte-for-byte.

Runs examples/quickstart with the faultfree configuration spelled out as
command-line arguments (scheme=fedavg, the historical tiny() numbers)
and examples/fedca_scenario with scenarios/faultfree.scn, then compares
the two run reports byte-for-byte. Both runs get a FEDCA_*-stripped
environment; the only arguments to the scenario runner are the file and
the report output path — every experiment knob comes from the file.

Usage:
  scenario_quickstart_test.py --quickstart BIN --runner BIN \
      --scenario scenarios/faultfree.scn
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# The faultfree scenario's configuration, as quickstart arguments. Keep in
# lockstep with scenarios/faultfree.scn.
QUICKSTART_ARGS = [
    "scheme=fedavg", "clients=5", "k=6", "batch=8", "samples=300",
    "test_samples=64", "rounds=4", "noise=0.5", "seed=5",
]


def clean_env() -> dict:
    return {k: v for k, v in os.environ.items()
            if not k.startswith("FEDCA_")}


def run(cmd: list) -> bool:
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          env=clean_env())
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        print(f"FAIL: {Path(cmd[0]).name} exited {proc.returncode}",
              file=sys.stderr)
        return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quickstart", required=True)
    parser.add_argument("--runner", required=True)
    parser.add_argument("--scenario", required=True)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        # quickstart writes each scheme's report with ".<scheme>" before
        # the extension; QUICKSTART_ARGS runs scheme=fedavg only.
        via_args = Path(tmp) / "quickstart.fedavg.jsonl"
        via_file = Path(tmp) / "scenario.jsonl"
        if not run([args.quickstart, *QUICKSTART_ARGS,
                    f"report={Path(tmp) / 'quickstart.jsonl'}"]):
            return 1
        if not run([args.runner, args.scenario,
                    f"observability.report={via_file}"]):
            return 1
        a = via_args.read_bytes()
        b = via_file.read_bytes()
        if not a:
            print("FAIL: quickstart produced an empty report",
                  file=sys.stderr)
            return 1
        if a != b:
            print(f"FAIL: reports differ ({len(a)} vs {len(b)} bytes) — "
                  "the scenario file no longer reproduces the quickstart",
                  file=sys.stderr)
            return 1
    print("scenario reproduces faultfree quickstart byte-for-byte "
          f"({len(a)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
