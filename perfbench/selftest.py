#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

Builds perfbench, runs the percentile unit test (hand-computed sets), then one
short untraced and one short traced run of every workload, and checks each
result against BENCHMARK.json: the last stdout line is one
JSON object with exactly correct/attempted/failed/metrics, the metrics are
exactly the listed names with their units, outputs are correct, the registry
restages only under the model mix, the cycle counts repeat across seeds, the
cycle engine's per-layer host time covers its image time, and the trace file
is valid JSON.  Exits 1 on the first failed check.
"""

import json
import math
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SECONDS = 2


def check(cond, what):
    if not cond:
        print(f"selftest FAIL: {what}")
        sys.exit(1)


def result_of(workload, seed, trace):
    cmd = [os.path.join(run.BUILD_DIR, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS),
           "--trace", str(trace), "--out", run.OUT_DIR]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    check(proc.returncode == 0, f"{workload} trace={trace} exit {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(res) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(res)}")
    check(res["correct"] is True, f"{workload} trace={trace}: correct is false")
    check(res["failed"] == 0, f"{workload} trace={trace}: {res['failed']} failed")
    check(isinstance(res["attempted"], int) and res["attempted"] >= 1,
          f"{workload}: attempted {res['attempted']}")
    return res


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]
    check(workloads == run.WORKLOADS, "run.py and BENCHMARK.json list the same workloads")

    check(run.build(), "build")
    stats = subprocess.run([os.path.join(run.BUILD_DIR, "perfbench_stats_test")])
    check(stats.returncode == 0, "percentile unit test")

    for w in workloads:
        plain = result_of(w, 1, 0)
        got = {k: v["unit"] for k, v in plain["metrics"].items()}
        check(got == e2e, f"{w}: end-to-end metrics {sorted(got)}")
        for k, v in plain["metrics"].items():
            check(math.isfinite(v["value"]) and v["value"] > 0,
                  f"{w}: {k} = {v['value']} (must be finite and non-zero)")

        traced = result_of(w, 1, 1)
        got = {k: v["unit"] for k, v in traced["metrics"].items()}
        check(got == layer, f"{w}: per-layer metrics differ from BENCHMARK.json")
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        if w == "wire_vgg_r1000":
            check(m["registry.restages"] == 0, f"{w}: registry restaged")
            check(m["core.macs_performed"] > 0, f"{w}: no cycle-engine profile")
            check(m["bench.layer_host_gap_pct"] <= 5,
                  f"{w}: per-layer host time misses the image wall time by "
                  f"{m['bench.layer_host_gap_pct']}%")
            other = result_of(w, 2, 0)["metrics"]
            for k in ("sim_cycles_per_image", "model_err_pct"):
                check(other[k]["value"] == plain["metrics"][k]["value"],
                      f"{w}: {k} differs across seeds")
        if w == "wire_zoo_closed":
            check(m["registry.restages"] > 0, f"{w}: registry never restaged")
        trace_file = os.path.join(run.OUT_DIR, f"trace-{w}-1.json")
        with open(trace_file) as f:
            events = json.load(f)["traceEvents"]
        check(any(e["ph"] == "X" for e in events), f"{w}: empty trace")
        print(f"selftest: {w} ok ({plain['attempted']} + {traced['attempted']} checked)")
    print("selftest: all checks pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
