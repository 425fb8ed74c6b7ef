#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload protocol|service|live --seed N \
        --seconds S --trace 0|1 [--smoke]

Run from the repository root.  The first call configures and builds the
library and the benchmark from source into .bench_build/ (later calls only
rebuild what changed).  The benchmark binary runs one workload in a fresh
process; its result line is checked against BENCHMARK.json and printed as
the last line of standard output.  Build logs and progress go to standard
error; the full run record lands in .bench_build/runs/.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS = os.path.join(ROOT, ".bench_build", "runs")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no library sources (CMakeLists.txt, src/) next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD])
        steps.append(["cmake", "--build", BUILD, "-j",
                      str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def source_id():
    """The git commit when there is one, plus a digest of the sources."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        paths += [os.path.join(base, f) for f in files]
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    return f"{commit}+src-sha256:{digest.hexdigest()[:16]}"


def validate(result, trace):
    """The result line must carry exactly the metrics BENCHMARK.json names
    for this mode, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics {got} differ from BENCHMARK.json {want}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            fail(f"metric {name} has no numeric value")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["protocol", "service", "live"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own test")
    args = ap.parse_args()

    binary = build()
    os.makedirs(RUNS, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", RUNS, "--commit", source_id()]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with {proc.returncode}")
    result = json.loads(lines[-1])
    validate(result, args.trace == 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
