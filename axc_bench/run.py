#!/usr/bin/env python3
"""Builds axc_bench from this source tree and runs it.

    python3 axc_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every argument is passed to the axc_bench binary (see src/main.cpp; with no
--workload it runs all four workloads, each in its own process). The first
call configures and builds a Release tree in .bench_build at the root of the
source tree; later calls only rebuild what changed. Build output goes to
standard error, so the last line of standard output stays the binary's JSON
result. Exits non-zero without a result when the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", BUILD, "--target", "axc_bench",
                           "-j", jobs], stdout=sys.stderr).returncode == 0


def main():
    if not build():
        print("run.py: building axc_bench failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "axc_bench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
