#!/usr/bin/env python3
"""Builds the paging benchmark from source and runs one workload.

    python3 perfbench/run.py --workload fft-parity-tcp --seed 1 --seconds 30 --trace 0

Run from the repository root. The build goes to .bench_build/ (incremental
after the first run). The last line of standard output is the benchmark's
JSON result; the exit code is non-zero when the build fails, any access
failed, or any page read back wrong.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), ".bench_build")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "pager_bench", "-j", jobs],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(BUILD, "pager_bench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
