#!/usr/bin/env python3
"""Build bench_e2e from this source tree, then run it with the given arguments.

Usage (from the repository root):
    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds a Release tree under .bench_build/;
later calls only let the build tool confirm it is up to date. Build output
goes to stderr so the benchmark's last stdout line stays its JSON result.
Scratch files (the daemon's data dirs) go under .bench_build/tmp.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "bench_e2e")
TMP = os.path.join(ROOT, ".bench_build", "tmp")


def fail(message):
    print(f"bench_e2e/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("the qcenv sources (CMakeLists.txt, src/) are not next to bench_e2e/")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", BUILD, "--target", "bench_e2e", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "bench_e2e")


def main():
    binary = build()
    os.makedirs(TMP, exist_ok=True)
    os.environ["TMPDIR"] = TMP
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
