#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload, in shortened form: two runs at one seed must pass the
correctness gate and print the same virtual-time digest; a run at another
seed must pass the gate and print a different digest. The traced and
untraced result objects must carry exactly the metric names BENCHMARK.json
declares. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("thrash_rw_ccache", "thrash_ro_swap", "kv_zipf")


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--short"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False)
    lines = proc.stdout.strip().split("\n")
    # "digest: <run digest> (over N inputs; first input <digest of input 0>)"
    digest_line = next((line for line in lines if line.startswith("digest:")), "")
    digest = digest_line.split()[1:2] + digest_line.rstrip(")").split()[-1:]
    result = json.loads(lines[-1]) if lines[-1].startswith("{") else None
    return proc.returncode, digest, result


def check(ok, message):
    print(("ok    " if ok else "FAIL  ") + message, flush=True)
    if not ok:
        sys.exit(1)


def main():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    for workload in WORKLOADS:
        code_a, digest_a, result_a = run(workload, 11, 0)
        code_b, digest_b, _ = run(workload, 11, 0)
        code_c, digest_c, result_c = run(workload, 12, 0)
        check(code_a == 0 and code_b == 0 and code_c == 0
              and result_a["correct"] and result_c["correct"]
              and result_a["failed"] == 0 and result_c["failed"] == 0,
              f"{workload}: gate clean at seeds 11, 11, 12")
        check(len(digest_a) == 2 and digest_a == digest_b,
              f"{workload}: same digest twice at seed 11 ({digest_a[0]})")
        check(len(digest_c) == 2 and digest_c[0] != digest_a[0],
              f"{workload}: different digest at seed 12 ({digest_c[0]})")
        check(set(result_a["metrics"]) == declared[0],
              f"{workload}: untraced metrics match BENCHMARK.json end_to_end")
        code_t, digest_t, result_t = run(workload, 11, 1)
        check(code_t == 0 and result_t["correct"] and digest_t[1] == digest_a[1],
              f"{workload}: traced run clean, same first-input digest as untraced")
        check(set(result_t["metrics"]) == declared[1],
              f"{workload}: traced metrics match BENCHMARK.json per_layer")
    return 0


if __name__ == "__main__":
    sys.exit(main())
