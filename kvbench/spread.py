#!/usr/bin/env python3
"""Rerun one workload over several seeds and report each metric's spread.

    python3 kvbench/spread.py --workload serve-kv [--seeds 1,2,3,4,5] [--seconds S]

For every end-to-end metric of BENCHMARK.json it prints the median, the
first and third quartiles (statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median, and that spread against the metric's bound and against
a third of it. Exits 1 if any run fails or reports correct=false, or if a
spread other than setup_s's exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    values = {m["name"]: [] for m in spec["end_to_end"]}
    ok = True
    for seed in [int(s) for s in args.seeds.split(",")]:
        cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            print("seed %d: exit %d\n%s" % (seed, run.returncode, run.stderr[-2000:]))
            ok = False
            continue
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"] != 0:
            print("seed %d: correct=%s failed=%d" % (seed, result["correct"], result["failed"]))
            ok = False
        row = []
        for name in values:
            v = result["metrics"][name]["value"]
            values[name].append(v)
            row.append("%s=%.6g" % (name, v))
        print("seed %d: %s" % (seed, " ".join(row)), flush=True)

    print("\n%-16s %14s %14s %14s %9s %7s %s" %
          ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    for m in spec["end_to_end"]:
        vs = values[m["name"]]
        if len(vs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = m["bound"]
        if spread <= bound / 3:
            verdict = "ok (< bound/3)"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "OVER BOUND"
            ok = ok and m["name"] == "setup_s"
        print("%-16s %14.6g %14.6g %14.6g %8.2f%% %6.0f%% %s" %
              (m["name"], med, q1, q3, 100 * spread, 100 * bound, verdict))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
