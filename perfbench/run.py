#!/usr/bin/env python3
"""The repository benchmark: the command BENCHMARK.json names.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. It builds perfbench/ (a CMake package that
compiles ../src and ../tools/dice_shard_worker.cpp) into $CARGO_TARGET_DIR
(default .bench_build), runs one workload, checks that the metrics the run
printed are exactly the ones BENCHMARK.json declares for that mode, with
their units, and prints the run's result object as the last line of stdout.
Build output goes to stderr. Any failure to build, run or self-check exits
nonzero without printing a result.
"""

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# The benchmark binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds; both are quick no-ops once up to date."""
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "4"],
                   stdout=sys.stderr, check=True)


def declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as spec_file:
        spec = json.load(spec_file)
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in metrics}


def self_check(result, declared):
    """Two-way: every printed metric is declared with its unit, and every
    declared metric is printed. Returns a list of problems."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    printed = result["metrics"]
    for name, unit in declared.items():
        if name not in printed:
            problems.append("declared metric %s was not printed" % name)
        elif printed[name].get("unit") != unit:
            problems.append("metric %s printed in %s, declared in %s"
                            % (name, printed[name].get("unit"), unit))
    for name in printed:
        if name not in declared:
            problems.append("printed metric %s is not declared" % name)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target / "perfbench").resolve()
    work_dir = (target / "perfbench-work").resolve()
    try:
        declared = declared_metrics(args.trace)
        build(build_dir)
    except (OSError, KeyError, ValueError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 3

    work_dir.mkdir(parents=True, exist_ok=True)
    command = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work_dir)]
    # Its own process group, so a timeout also stops any shard workers.
    run = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                           start_new_session=True)
    try:
        stdout, _ = run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.communicate()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 5
    lines = stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        print("perfbench: run exited %d" % run.returncode, file=sys.stderr)
        return 4
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
        problems = self_check(result, declared)
    except (ValueError, AttributeError, TypeError) as error:
        problems = ["unreadable result line: %s" % error]
    if problems:
        for problem in problems:
            print("perfbench: self-check: %s" % problem, file=sys.stderr)
        return 6
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
