#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 benchmark/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 benchmark/run.py --self-test

Configures an optimized (Release) build of the library and the benchmark
program under .bench_build/ at the root of the checkout, builds it when a
source changed, and runs the program with the given arguments. The last line
of standard output is its JSON result; build output goes to
standard error. Records and Chrome traces land in .bench_build/results/.
--self-test builds and runs the unit tests of the benchmark's own logic.
See benchmark/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
JOBS = "4"


def run_quiet(cmd):
    """Run a build step, sending its output to stderr; exit on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
        sys.exit(3)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: library sources not found at %s/src\n" % ROOT)
        sys.exit(3)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", BUILD, "--target", target, "-j", JOBS])
    return os.path.join(BUILD, target)


def main(argv):
    if argv == ["--self-test"]:
        return subprocess.run([build("idonly_bench_tests")]).returncode
    binary = build("idonly_bench")
    os.makedirs(RESULTS, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run([binary] + argv + ["--out-dir", RESULTS]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
