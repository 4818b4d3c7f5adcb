#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload heavy-loop --seeds 1 2 3 4 5

Runs perfbench/run.py once per seed (untraced, BENCHMARK.json's
run_seconds) and prints, per metric, the median and the quartile distance
as a share of the median next to the metric's bound.
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
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        result = json.loads(out.stdout.strip().split("\n")[-1])
        if not result["correct"] or out.returncode:
            sys.exit("seed %d: run failed" % seed)
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())),
            flush=True)
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        print("%-16s median %12.5g  spread %6.3f  bound %.2f" %
              (m["name"], med, (q3 - q1) / med, m["bound"]))


if __name__ == "__main__":
    main()
