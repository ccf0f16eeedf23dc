#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload kv_zipf --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles ../src) in Release mode into the directory
named by CARGO_TARGET_DIR, or .bench_build when unset, then runs the
benchmark binary. Build output goes to stderr. The binary's stdout is passed
through; its last line is the result object (correct, attempted, failed,
metrics). Exits non-zero, printing no result, when the build fails or the
binary's last line is not a well-formed result.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("thrash_rw_ccache", "thrash_ro_swap", "kv_zipf")
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(bdir):
    """Configures and builds the benchmark; returns the binary path."""
    os.makedirs(bdir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # One build at a time per build directory. Configuring again is cheap
    # and recovers from an earlier configure that failed half way.
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", bdir, "--target", "perfbench",
                        "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(bdir, "perfbench")


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["metrics"], dict)
            and isinstance(result["attempted"], int) and result["attempted"] >= 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="shortened windows, for the self-test only")
    args = parser.parse_args()

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(bdir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]
    if args.short:
        cmd.append("--short")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    lines = proc.stdout.rstrip("\n").split("\n")
    if not valid_result(lines[-1]):
        sys.stderr.write(proc.stdout)
        print("perfbench: no result line", file=sys.stderr)
        return 4
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
