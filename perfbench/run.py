#!/usr/bin/env python3
"""Builds and runs rollview_bench, the open-loop commit-to-visible benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 10 --trace 0

The first run configures and compiles the engine from ../src together with
perfbench/rollview_bench.cc into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs only rebuild what changed. Build output
goes to stderr. The benchmark's own output, ending in one JSON result line,
goes to stdout. Exits non-zero without a result if the build or the run
fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("chain", "star", "partitioned")
RUN_TIMEOUT_S = 170


def build(bench_dir: Path, build_dir: Path) -> Path:
    src_dir = bench_dir.parent / "src"
    if not (src_dir / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: engine sources not found at {src_dir}")
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "rollview_bench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = Path(__file__).resolve().parent
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (build_root / "perfbench").resolve()
    try:
        binary = build(bench_dir, build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"run.py: benchmark exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 4
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
