#!/usr/bin/env python3
"""Builds the service benchmark from source, then runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload recalc --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/ at the checkout root (Release; the first
run configures and compiles, later runs are incremental no-ops). Build
output goes to stderr so that standard output carries only the
benchmark's report, whose last line is the JSON result. A failed build
exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_dir = os.path.join(root, ".bench_build")

    def build_step(args):
        done = subprocess.run(args, stdout=sys.stderr, stderr=sys.stderr)
        return done.returncode == 0

    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if not build_step(["cmake", "-S", bench_dir, "-B", build_dir,
                           "-DCMAKE_BUILD_TYPE=Release"]):
            print("perfbench: configure failed", file=sys.stderr)
            return 1
    jobs = str(min(4, os.cpu_count() or 1))
    if not build_step(["cmake", "--build", build_dir, "--target", "svcbench",
                       "-j", jobs]):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = os.path.join(build_dir, "svcbench")
    sys.stdout.flush()
    # svcbench runs in the foreground and is waited for; it stops the
    # server processes it spawns before it exits.
    done = subprocess.run([binary, "--root", root] + sys.argv[1:])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
