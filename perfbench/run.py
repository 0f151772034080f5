#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the benchmark program (perfbench/CMakeLists.txt, which compiles the
library sources under src/) into the build directory named by
CARGO_TARGET_DIR (default .bench_build) and runs one workload:

  python3 perfbench/run.py --workload join_names --seed 1 --seconds 10 --trace 0

--workload all runs every workload in turn and ends with one combined result
whose metric names are prefixed with the workload.  --out FILE appends each
run's "ujoin.perfbench" report line to FILE (input of perfbench/compare.py).
--corrupt pair|hit|response damages one output before the checks, to show
that they catch it.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}.  A build or run failure
exits non-zero without printing one.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["join_names", "search_clean", "serve_mixed"]
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds ujoin_perf; returns the binary's path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ next to perfbench/: nothing to build")
    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(out_dir, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        steps = [
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "-j", jobs, "--target", "ujoin_perf"],
        ]
        with open(log_path, "w") as log:
            for step in steps:
                if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                    with open(log_path) as done:
                        sys.stderr.write(done.read()[-4000:])
                    fail("build failed (log: %s)" % log_path)
    return os.path.join(build_dir, "ujoin_perf")


def run_one(binary, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--corrupt", args.corrupt]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stdout.write(proc.stdout)
        fail("%s exited with code %d" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or \
            report.get("report") != "ujoin.perfbench":
        fail("%s printed a malformed result" % workload)
    print("\n".join(lines[:-2]))
    if args.out:
        with open(args.out, "a") as out:
            out.write(lines[-2] + "\n")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corrupt", default="none",
                        choices=["none", "pair", "hit", "response"])
    parser.add_argument("--out", help="append report lines to this file")
    args = parser.parse_args()

    binary = build()
    if args.workload != "all":
        print(json.dumps(run_one(binary, args.workload, args)))
        return
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_one(binary, workload, args)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
