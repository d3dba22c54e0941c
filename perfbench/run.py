#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark binary is built from source
(perfbench/CMakeLists.txt compiles the libraries under src/) into
.bench_build/perfbench, or under $CARGO_TARGET_DIR when that is set. Every run
gets a private, empty trace-cache directory, so set-up never reads a trace an
earlier run left behind. The binary's last stdout line is the JSON result;
it is checked against the metric names and units BENCHMARK.json declares
before anything is printed. Exits non-zero, printing no result, when the
build, the run or that check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def child_env(tmp_dir):
    # Outside RISPP_* settings (tracing, metrics files, thread counts) would
    # change what is measured; the binary sets the ones it needs itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RISPP_")}
    env["TMPDIR"] = tmp_dir
    return env


def build(build_dir, env):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail("build step %s failed: %s" % (step[:2], error))
        if done.returncode != 0:
            fail("build step %s exited %d" % (step[:2], done.returncode))
    return os.path.join(build_dir, "rispp_perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are %s" % sorted(result))
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    if printed != declared_metrics(trace):
        fail("printed metrics differ from those BENCHMARK.json declares")
    if result["attempted"] < 1:
        fail("no operation was checked")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--entry-delay-us", type=int, default=0,
                        help="busy-wait added to every traced RTM entry (self-test)")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = child_env(tmp_dir)
    binary = build(build_dir, env)

    work_dir = tempfile.mkdtemp(prefix="run-", dir=build_dir)
    try:
        command = [binary, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--work-dir", work_dir, "--entry-delay-us", str(args.entry_delay_us)]
        try:
            done = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                                  timeout=RUN_TIMEOUT_S, text=True)
        except subprocess.TimeoutExpired:
            fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if done.returncode != 0:
        fail("benchmark exited %d" % done.returncode)
    lines = done.stdout.rstrip("\n").split("\n")
    check_result(lines[-1], args.trace == 1)
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
