#!/usr/bin/env python3
"""Build psmbench from source and run one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload characterize|predict_stream|serve \
        --seed N --seconds S --trace 0|1 [--spans-out FILE] \
        [--corrupt-expected] [--print-digests]

The benchmark binary is built with CMake into $CARGO_TARGET_DIR (default
.bench_build) on first use and rebuilt incrementally afterwards. Each run
gets a private directory under <build dir>/runs for its models and CSVs,
removed when the run ends. The last line of stdout is the result JSON;
its metric names are checked against BENCHMARK.json. The exit status is
the binary's: 0 when every correctness check passed.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds the psmbench target; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"psmgen sources not found under {ROOT}", code=2)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "psmbench-build.log")
    with open(os.path.join(build_dir, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "psmbench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build timed out; see {log_path}")
            if done.returncode != 0:
                fail(f"build failed ({' '.join(step)}); see {log_path}")
    return os.path.join(build_dir, "psmbench")


def check_metric_names(result_line, trace):
    """The result must carry exactly the metrics BENCHMARK.json declares."""
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return
    with open(spec_path) as f:
        spec = json.load(f)
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    reported = set(json.loads(result_line)["metrics"])
    if declared != reported:
        fail(f"metrics {sorted(reported ^ declared)} differ from BENCHMARK.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["characterize", "predict_stream", "serve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--spans-out")
    parser.add_argument("--corrupt-expected", action="store_true")
    parser.add_argument("--print-digests", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0", code=2)

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    binary = build(build_dir)
    runs = os.path.join(build_dir, "runs")
    os.makedirs(runs, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=runs)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--workdir", workdir]
    if args.spans_out:
        command += ["--spans-out", os.path.abspath(args.spans_out)]
    if args.corrupt_expected:
        command.append("--corrupt-expected")
    if args.print_digests:
        command.append("--print-digests")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed no result (exit {done.returncode})")
    check_metric_names(lines[-1], args.trace == "1")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
