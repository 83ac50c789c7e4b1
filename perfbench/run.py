#!/usr/bin/env python3
"""Build and run the Mykil benchmark.

    python3 perfbench/run.py --workload churn --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds perfbench/ (which compiles the
libraries from src/) into .bench_build/perfbench, then runs the benchmark
binary. Its standard output is passed through; its last line is the JSON
result. Build output goes to standard error. Traced runs (--trace 1) also
write their spans and crypto unit costs to .bench_build/traces/.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("churn", "data_fanout", "rekey_scale", "failover")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, ".bench_build", "perfbench")
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build, "-j", str(min(4, os.cpu_count() or 1)),
         "--target", "mykil_perfbench"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed", file=sys.stderr)
            return 1

    cmd = [os.path.join(build, "mykil_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(root, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
