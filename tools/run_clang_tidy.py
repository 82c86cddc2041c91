#!/usr/bin/env python3
"""clang-tidy gate for the FedCA reproduction: zero NEW findings.

Runs clang-tidy (config: .clang-tidy at the repo root) over every
first-party translation unit in the compilation database and compares the
normalized findings against the committed baseline
(tools/clang_tidy_baseline.txt). The gate fails only on findings that are
not in the baseline, so the bar ratchets: existing debt is frozen, new debt
is rejected. Burn-downs shrink the baseline; it must never grow.

Finding normalization is path + check only (no line numbers), so unrelated
edits that shift lines do not churn the baseline.

Usage:
  run_clang_tidy.py [--build-dir DIR] [--update-baseline] [--jobs N]
                    [--baseline FILE]

Baseline hygiene is checked before anything else — an entry naming a file
that no longer exists (or a malformed entry) fails the gate even when
clang-tidy itself is not installed, so dead debt cannot linger.

Environment:
  CLANG_TIDY  explicit clang-tidy binary (default: first of clang-tidy,
              clang-tidy-19 ... clang-tidy-14 on PATH)

Exit codes:
  0  clean (or clang-tidy unavailable — prints SKIP so CI shows the gap)
  1  new findings not in the baseline
  2  usage/configuration error (no compile_commands.json, bad build dir)
"""

import argparse
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_PATH = os.path.join(REPO_ROOT, "tools", "clang_tidy_baseline.txt")

# First-party code only: system headers and gtest are not ours to lint.
FIRST_PARTY = ("src/", "bench/", "examples/", "tests/")

# "path:line:col: warning: message [check-name]"
FINDING_RE = re.compile(
    r"^(?P<path>[^\s:][^:]*):(?P<line>\d+):(?P<col>\d+):\s+"
    r"(?:warning|error):\s+(?P<msg>.*?)\s+\[(?P<check>[\w.,-]+)\]\s*$"
)


def find_clang_tidy():
    env = os.environ.get("CLANG_TIDY")
    if env:
        return env if shutil.which(env) else None
    candidates = ["clang-tidy"] + [f"clang-tidy-{v}" for v in range(19, 13, -1)]
    for c in candidates:
        if shutil.which(c):
            return c
    return None


def load_compile_commands(build_dir):
    path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.isfile(path):
        print(
            f"run_clang_tidy: no {path} — configure with "
            "cmake -B build -S . (CMAKE_EXPORT_COMPILE_COMMANDS is on by default)",
            file=sys.stderr,
        )
        sys.exit(2)
    with open(path, "r", encoding="utf-8") as f:
        db = json.load(f)
    files = []
    for entry in db:
        src = os.path.abspath(os.path.join(entry["directory"], entry["file"]))
        rel = os.path.relpath(src, REPO_ROOT)
        if rel.replace(os.sep, "/").startswith(FIRST_PARTY):
            files.append(src)
    return sorted(set(files))


def normalize(raw_line):
    """One finding line -> stable 'relpath [check]' key, or None."""
    m = FINDING_RE.match(raw_line)
    if not m:
        return None
    path = os.path.abspath(m.group("path"))
    try:
        rel = os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")
    except ValueError:
        rel = m.group("path")
    if rel.startswith(".."):
        return None  # outside the repo (system header) — not ours
    return f"{rel} [{m.group('check')}]"


def run_tidy(binary, files, build_dir, jobs):
    findings = set()
    # Batch to keep command lines short while amortizing process startup.
    batch = max(1, len(files) // max(1, jobs * 4)) if files else 1
    procs = []

    def drain(block):
        while procs and (block or len(procs) >= jobs):
            p, batch_files = procs.pop(0)
            out, _ = p.communicate()
            for line in out.splitlines():
                key = normalize(line)
                if key:
                    findings.add(key)

    for i in range(0, len(files), batch):
        chunk = files[i : i + batch]
        cmd = [binary, "-p", build_dir, "--quiet"] + chunk
        procs.append(
            (
                subprocess.Popen(
                    cmd,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL,
                    text=True,
                    cwd=REPO_ROOT,
                ),
                chunk,
            )
        )
        drain(block=False)
    drain(block=True)
    return findings


def load_baseline(path):
    if not os.path.isfile(path):
        return set()
    with open(path, "r", encoding="utf-8") as f:
        return {
            line.strip()
            for line in f
            if line.strip() and not line.startswith("#")
        }


BASELINE_ENTRY_RE = re.compile(r"^(?P<path>\S+)\s+\[(?P<check>[\w.,-]+)\]$")


def baseline_dead_files(baseline):
    """Entries whose file no longer exists: dead debt that must be pruned.

    Runs even when clang-tidy itself is unavailable — a deleted file can
    never burn its entry down, so leaving it rots the ratchet silently.
    Malformed entries are reported the same way (they can never match a
    normalized finding either).
    """
    dead = []
    for entry in sorted(baseline):
        m = BASELINE_ENTRY_RE.match(entry)
        if not m or not os.path.isfile(os.path.join(REPO_ROOT, m.group("path"))):
            dead.append(entry)
    return dead


def write_baseline(findings, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write(
            "# clang-tidy suppression baseline — frozen debt, never grows.\n"
            "# One 'relpath [check]' per line; regenerate with\n"
            "#   tools/run_clang_tidy.py --update-baseline\n"
            "# only when burning findings DOWN.\n"
        )
        for key in sorted(findings):
            f.write(key + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=os.path.join(REPO_ROOT, "build"),
                        help="build tree holding compile_commands.json")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from current findings")
    parser.add_argument("--jobs", type=int,
                        default=max(1, multiprocessing.cpu_count() - 1))
    parser.add_argument("--baseline", default=BASELINE_PATH,
                        help="baseline file (default: tools/clang_tidy_baseline.txt)")
    args = parser.parse_args()

    # Baseline hygiene gates BEFORE the clang-tidy-missing SKIP: dead
    # entries are detectable without the binary and must not survive it.
    baseline = load_baseline(args.baseline)
    dead = baseline_dead_files(baseline)
    if dead:
        print(f"run_clang_tidy: FAIL: {len(dead)} baseline entr"
              f"{'y names' if len(dead) == 1 else 'ies name'} missing or "
              "malformed files — prune them:", file=sys.stderr)
        for entry in dead:
            print(f"  dead: {entry}", file=sys.stderr)
        return 1

    binary = find_clang_tidy()
    if binary is None:
        # Not an error: the gcc-only container runs fedca_analyze and the
        # tests but cannot run this gate. Print loudly so the skip is visible.
        print("run_clang_tidy: SKIP: clang-tidy not found "
              "(set CLANG_TIDY or install clang-tidy)")
        return 0

    files = load_compile_commands(os.path.abspath(args.build_dir))
    if not files:
        print("run_clang_tidy: no first-party files in compile_commands.json",
              file=sys.stderr)
        return 2

    findings = run_tidy(binary, files, os.path.abspath(args.build_dir),
                        args.jobs)

    if args.update_baseline:
        write_baseline(findings, args.baseline)
        print(f"run_clang_tidy: baseline rewritten with {len(findings)} entries")
        return 0

    new = sorted(findings - baseline)
    stale = sorted(baseline - findings)
    if stale:
        print(f"run_clang_tidy: note: {len(stale)} baseline entries no longer "
              "fire — shrink tools/clang_tidy_baseline.txt:")
        for key in stale:
            print(f"  stale: {key}")
    if new:
        print(f"run_clang_tidy: FAIL: {len(new)} new finding(s) not in baseline:",
              file=sys.stderr)
        for key in new:
            print(f"  new: {key}", file=sys.stderr)
        return 1
    print(f"run_clang_tidy: OK: {len(findings)} finding(s), all baselined "
          f"({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
