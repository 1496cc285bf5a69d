#!/usr/bin/env python3
"""Builds and runs the fleet benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload read_tcp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The program and the benchmark are built from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the first
run pays for the build. Build output goes to stderr. The benchmark's
stdout is passed through, so its last line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status: 0 for a correct run, non-zero when the build fails, the run
fails its correctness gate, or no result line was printed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
WORKLOADS = ("read_tcp", "feed_replicated", "estimator_sharded")


def build(build_dir):
    """Configures (once) and builds; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print("perfbench: build failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def is_result(line):
    try:
        obj = json.loads(line)
    except ValueError:
        return False
    return (isinstance(obj, dict) and
            set(obj) == {"correct", "attempted", "failed", "metrics"})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the harness's own tests and exit")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "perfbench")
    if not build(build_dir):
        return 1
    if args.self_test:
        return subprocess.call([os.path.join(build_dir, "loadgen_test")])

    spans = os.path.join(build_root, "spans", "%s-seed%d.jsonl" %
                         (args.workload, args.seed))
    cmd = [os.path.join(build_dir, "fleetbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(build_root, "work-%d" % os.getpid()),
           "--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        # subprocess.run kills the child and waits for it before raising.
        sys.stderr.write("perfbench: run exceeded %d s\n" % e.timeout)
        return 1
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if not lines or not is_result(lines[-1]):
        print("perfbench: no result line", file=sys.stderr)
        return proc.returncode or 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
