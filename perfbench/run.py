#!/usr/bin/env python3
"""Build (on first use) and run the llm4d end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload run_degraded --seconds S [--seed N] [--trace 0|1]

The first call configures and builds perfbench/ (the llm4d library from
src/ plus the benchmark binary) into .bench_build/; later calls rebuild
incrementally. Build output goes to stderr, so the last line of stdout
is the benchmark's JSON result. With --trace 1 the Chrome trace of the
run is written to .bench_build/traces/<workload>-seed<N>.json.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "llm4d_perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: the llm4d sources (src/) are missing; "
                 "run from a full checkout of the repository")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR)])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    build()
    argv = [str(BINARY), "--workload", args.workload, "--seed", args.seed,
            "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        traces = BUILD_DIR / "traces"
        traces.mkdir(exist_ok=True)
        argv += ["--trace-file",
                 str(traces / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    # Replace this process: no child is left to wait for, and the
    # benchmark's exit code and output are the run's.
    os.execv(argv[0], argv)


if __name__ == "__main__":
    main()
