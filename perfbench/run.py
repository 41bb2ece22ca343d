#!/usr/bin/env python3
"""Build and run the lifepred repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first form configures and builds perfbench/ (the project's src/ modules
plus the harness in perfbench/harness) in Release mode under .bench_build/,
then runs one workload.  The workload makes its inputs from --seed, measures
for --seconds, checks its outputs, and prints as its last line a JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
of BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.
Build output goes to standard error.

--self-test runs every workload of BENCHMARK.json at a tiny size, traced and
untraced, and checks that each prints exactly the declared metrics with
their units, that every value is finite (and every end-to-end value
positive), and that every correctness check passed.

The exit code is 0 only when the build succeeded and every check passed.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "lifebench")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no src/CMakeLists.txt in this checkout; nothing to build")
        return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr)
        if result.returncode != 0:
            log(f"build step failed ({result.returncode}): {' '.join(step)}")
            return False
    return True


def run_harness(args, capture):
    """Runs the harness; returns (exit code, stdout text or None)."""
    command = [BINARY] + args + ["--work-dir", BUILD_DIR]
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                                stdout=subprocess.PIPE if capture else None,
                                text=True)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(command)}")
        return 1, None
    return result.returncode, result.stdout


def check_result(line, workload, trace, declared):
    """Problems with one result line, as a list of strings."""
    problems = []
    try:
        result = json.loads(line)
    except json.JSONDecodeError as error:
        return [f"last line is not JSON: {error}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("correctness checks failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted is not a positive integer")
    metrics = result.get("metrics", {})
    names = [metric["name"] for metric in declared]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        problems.append(f"metrics differ: missing {missing}, extra {extra}")
    for metric in declared:
        got = metrics.get(metric["name"])
        if got is None:
            continue
        if got.get("unit") != metric["unit"]:
            problems.append(f"{metric['name']}: unit {got.get('unit')} != "
                            f"{metric['unit']}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{metric['name']}: value {value} not finite")
        elif not trace and value <= 0:
            problems.append(f"{metric['name']}: end-to-end value {value} "
                            "is not positive")
    return [f"{workload} trace={int(trace)}: {p}" for p in problems]


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    problems = []
    for workload in bench["workloads"]:
        for trace in (False, True):
            declared = bench["per_layer" if trace else "end_to_end"]
            code, out = run_harness(
                ["--workload", workload["name"], "--seed", "7", "--seconds",
                 "1", "--trace", "1" if trace else "0", "--tiny"],
                capture=True)
            if code != 0 or not out:
                problems.append(f"{workload['name']} trace={int(trace)}: "
                                f"exit code {code}")
                continue
            problems += check_result(out.strip().splitlines()[-1],
                                     workload["name"], trace, declared)
            log(f"self-test {workload['name']} trace={int(trace)} done")
    for problem in problems:
        print(f"self-test: {problem}")
    print(f"self-test: {'FAILED' if problems else 'passed'} "
          f"({len(bench['workloads'])} workloads, traced and untraced)")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    options = parser.parse_args()
    if not options.self_test and None in (options.workload, options.seed,
                                          options.seconds, options.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not build():
        return 1
    if options.self_test:
        return self_test()
    code, _ = run_harness(["--workload", options.workload, "--seed",
                          options.seed, "--seconds", options.seconds,
                          "--trace", options.trace], capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main())
