#!/usr/bin/env python3
"""Build the MGX benchmark from this checkout and run one workload.

Run from the checkout root:

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds (Release, asserts off) into
.bench_build/; later calls rebuild only what changed. The benchmark's
result is the last line of standard output (see perfbench/README.md).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def build(targets):
    """Configure (once) and build @targets; build output goes to stderr."""
    for needed in ("CMakeLists.txt", os.path.join("src", "sim", "experiment.h")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"perfbench: {needed} is missing; the benchmark builds "
                     "the program from the checkout's sources")
    log = sys.stderr
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=log, stderr=log, check=True)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", *targets],
                   stdout=log, stderr=log, check=True)


def main(argv):
    try:
        if argv == ["--self-test"]:
            build(["perfbench_test"])
            return subprocess.run([os.path.join(BUILD, "perfbench_test")],
                                  cwd=BUILD).returncode
        build(["perfbench", "mgx_serve"])
    except subprocess.CalledProcessError as e:
        print(f"perfbench: build failed ({e})", file=sys.stderr)
        return 1
    # perfbench's default reference, output and socket directories are
    # relative to the checkout root.
    cmd = [os.path.join(BUILD, "perfbench"), *argv, "--serve-binary",
           os.path.join(".bench_build", "mgx", "examples", "mgx_serve")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
