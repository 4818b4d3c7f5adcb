#!/usr/bin/env python3
"""Repository benchmark: time to a checked leak verdict, per workload.

Run from the repository root:

    python3 perfbench/run.py --workload heavy-loop --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/ (the analysis libraries from src/ and subjects/ plus the
lcbench driver) in Release mode under .bench_build/, runs one workload and
passes its output through. The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json untraced (--trace 0), its per-layer metrics traced
(--trace 1). Exits non-zero, without a result line, when the sources are
missing, the build fails, or the result does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REQUIRED = ["src/CMakeLists.txt", "subjects/CMakeLists.txt",
            "bench/scalability.cpp", "bench/edit_storm.cpp"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("analysis sources missing (%s); run from a full checkout"
             % ", ".join(missing))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    out = os.path.join(ROOT, target, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs, "--target", "lcbench"]]
    if os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "lcbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="cross-check the planted leak sets against the "
                         "interpreter oracle and score the paper subjects")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    binary = build()
    cmd = [binary, "--selftest"] if args.selftest else [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (" ".join(cmd), RUN_TIMEOUT_S))
    lines = proc.stdout.rstrip("\n").split("\n")
    if args.selftest:
        print("\n".join(lines))
        sys.exit(proc.returncode)

    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        print("\n".join(lines), file=sys.stderr)
        fail("no result line (exit code %d)" % proc.returncode)
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        print("\n".join(lines), file=sys.stderr)
        fail("metrics do not match BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    print("\n".join(lines))
    # A wrong verdict is reported in the result (correct: false) and fails
    # the run; lcbench's exit code says so too.
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
