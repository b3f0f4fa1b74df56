#!/usr/bin/env python3
"""Self-test of the benchmark: the oracle must catch injected faults,
a clean run must pass, and run.py must refuse to run without the
program's sources.

    python3 perfbench/selftest.py

Run it from the repository root after one normal run.py invocation (it
reuses that build). Exits 0 when every check holds.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]


def run(extra):
    # short_scans never erases, so a dropped or corrupted insert stays
    # visible to the final contents check whatever the seed.
    cmd = RUN + ["--workload", "short_scans", "--seed", "1",
                 "--seconds", "1", "--trace", "0"] + extra
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"run {extra} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    failures = []

    clean = run([])
    if not clean["correct"] or clean["failed"] != 0:
        failures.append(f"clean run reports failures: {clean}")

    for fault in ("drop", "corrupt"):
        result = run(["--fault", fault])
        if result["failed"] == 0:
            failures.append(f"fault '{fault}' went unnoticed: {result}")

    # Only BENCHMARK.json and perfbench/: run.py must fail, print nothing.
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "skewed_updates", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=tmp, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append("run.py ran without the program's sources")

    for f in failures:
        print(f"FAIL: {f}")
    print("selftest: " + ("ok" if not failures else "FAILED"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
