#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench in
Release mode; later runs rebuild incrementally. Scratch directories go
under .bench_build/scratch and are removed by the benchmark. The last
line of stdout is the benchmark's JSON result; build output and
diagnostics go to stderr. README.md describes workloads and metrics.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH = os.path.join(".bench_build", "scratch")
# A run measures for at most 60 s plus set-up; anything near the 180 s
# limit is a hang.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources next to perfbench/ (src/CMakeLists.txt)")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed", 1)
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed", 1)
    return os.path.join(BUILD, "perfbench")


def main():
    binary = build()
    cmd = [binary, "--scratch", SCRATCH] + sys.argv[1:]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", 1)
    if proc.returncode != 0:
        # A crash or failed check is reported, never retried.
        fail(f"benchmark exited with {proc.returncode}", 1)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
