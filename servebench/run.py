#!/usr/bin/env python3
"""Build and run the serving benchmark.

Usage (from the repository root):

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures servebench/CMakeLists.txt (which compiles the AlayaDB sources
under src/ together with the benchmark) into $CARGO_TARGET_DIR/servebench, or
.bench_build/servebench when that variable is unset, builds it, runs the
helper self-tests and then one benchmark run. Build output goes to stderr;
the benchmark's report goes to stdout and its last line is the JSON result.
Exits non-zero when the build, a self-test or any output check fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(cmd, **kwargs):
    return subprocess.run(cmd, check=False, **kwargs).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(os.path.abspath(target), "servebench")
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "-j", jobs],
        [os.path.join(build, "servebench_selftest")],
    ]
    for cmd in steps:
        if run(cmd, stdout=sys.stderr) != 0:
            print("servebench: step failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    sys.stdout.flush()
    return run([
        os.path.join(build, "servebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", os.path.join(build, "out"),
    ])


if __name__ == "__main__":
    sys.exit(main())
