#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]

Run from the repository root.  The first call configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/perfbench;
later calls only re-check the build.  Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result.  `--workload all` runs every
workload untraced and prints every end-to-end metric in one table.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["wire_vgg_r1000", "wire_zoo_closed"]
BUILD_DIR = os.path.join(".bench_build", "perfbench")
OUT_DIR = os.path.join(".bench_build", "out")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    here = os.path.dirname(os.path.abspath(__file__))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench", "perfbench_stats_test"])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build step failed: {e}", file=sys.stderr)
            return False
        if rc != 0:
            print(f"perfbench: build step failed ({rc}): {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def run_one(workload, seed, seconds, trace, capture):
    cmd = [os.path.join(BUILD_DIR, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out", OUT_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    return proc.returncode, proc.stdout


def run_all(seed, seconds):
    rows = []
    ok = True
    for w in WORKLOADS:
        rc, out = run_one(w, seed, seconds, False, True)
        sys.stdout.write(out or "")
        if rc != 0 or not out:
            ok = False
            continue
        result = json.loads(out.strip().splitlines()[-1])
        ok = ok and result["correct"] and result["failed"] == 0
        fail_frac = result["failed"] / result["attempted"]
        rows.append((w, "fail_frac", fail_frac, "ratio"))
        for name, m in result["metrics"].items():
            rows.append((w, name, m["value"], m["unit"]))
    print("\nall workloads, seed %d, %g s each:" % (seed, seconds))
    for w, name, value, unit in rows:
        print(f"  {w:<16} {name:<22} {value:>14.6g} {unit}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not build():
        return 1
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    rc, _ = run_one(args.workload, args.seed, args.seconds, args.trace == 1, False)
    return rc


if __name__ == "__main__":
    sys.exit(main())
