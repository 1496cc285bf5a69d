#!/usr/bin/env python3
"""Runs the benchmark over several seeds and records how steady it is.

From the root of a checkout:

    python3 perfbench/steadiness.py --seeds 1-10 --out perfbench/history/NAME.json \
        --note "program at commit <sha>"

For every workload of BENCHMARK.json (or --workloads a,b) it makes one
untraced run per seed with the benchmark's run_seconds, then reports for
every end-to-end metric the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and their distance as a share of the
median. The spread of every metric should stay below a third of its
bound; a wider one is flagged WIDE. The output file keeps every run's
result and RUN descriptor, each round's set-up time, and the share of
CPU time the host stole while the run ran (/proc/stat), so it is a
history point: the host it ran on, what it measured, how much the
numbers move from seed to seed, and how busy the host was meanwhile.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def run_once(workload, seed, seconds):
    before = cpu_ticks()
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    after = cpu_ticks()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    descriptor = next((json.loads(l[4:]) for l in lines
                       if l.startswith("RUN ")), None)
    # "round N: set-up S s, ...": every round's set-up, behind setup_s.
    setups = [float(l.split()[3]) for l in lines if l.startswith("round ")]
    run = {"seed": seed, "exit": proc.returncode, "result": result,
           "run": descriptor, "setup_rounds_s": setups}
    # The share of CPU time the hypervisor gave to other guests while the
    # run ran: a slow run with a high share was slowed by the host.
    if before and after and after[1] > before[1]:
        run["host_steal_share"] = ((after[0] - before[0]) /
                                   (after[1] - before[1]))
    if proc.returncode != 0:
        # Why it failed: the VIOLATION and GATE lines, the replay seed.
        run["stderr_tail"] = proc.stderr.strip().splitlines()[-12:]
        run["stdout_tail"] = lines[-3:-1]
    return run


def summarize(runs, metrics):
    summary = {}
    for m in metrics:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs
                  if r["result"] and m["name"] in r["result"]["metrics"]]
        if len(values) < 2:
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median if median else float("inf")
        summary[m["name"]] = {
            "median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": m["bound"],
            "steady": spread < m["bound"] / 3,
        }
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", required=True)
    parser.add_argument("--note", default="",
                        help="what was measured, e.g. the program's commit")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    doc = {
        "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "note": args.note,
        "host": {"machine": platform.machine(), "kernel": platform.release(),
                 "cpu": cpu_model(), "cpus": os.cpu_count()},
        "run_seconds": bench["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    all_steady = True
    for workload in workloads:
        runs = []
        for seed in seeds:
            run = run_once(workload, seed, bench["run_seconds"])
            runs.append(run)
            ok = run["exit"] == 0 and run["result"] and run["result"]["correct"]
            all_steady &= bool(ok)
            values = " ".join(
                "%s=%.4g" % (m["name"], run["result"]["metrics"][m["name"]]["value"])
                for m in bench["end_to_end"]
                if run["result"] and m["name"] in run["result"]["metrics"])
            print("%s seed %d: %s %s host_steal_share=%.3f" %
                  (workload, seed, "ok" if ok else "FAILED", values,
                   run.get("host_steal_share", float("nan"))),
                  flush=True)
        summary = summarize(runs, bench["end_to_end"])
        for name, s in summary.items():
            all_steady &= s["steady"]
            print("  %-20s median %12.4f  spread %.4f  (bound %.2f)%s" %
                  (name, s["median"], s["spread"], s["bound"],
                   "" if s["steady"] else "  WIDE"), flush=True)
        doc["workloads"][workload] = {"summary": summary, "runs": runs}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
