#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload dense-values --seed 1 --seconds 20 --trace 0

The first run configures and builds `perfbench` (the library from the
repository's sources plus the harness in perfbench/src) under
`.bench_build/perfbench`; later runs only rebuild what changed. All build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. A traced run (`--trace 1`) also writes its spans as Chrome
trace-event JSON to `.bench_build/traces/<workload>-seed<seed>.json`.

Exits non-zero without a result when the repository sources are missing or
the build fails.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("dense-values", "dense-vectors", "stream-mixed")


def build(root, build_dir):
    """Configure (once) and build the benchmark; returns the binary path."""
    jobs = str(min(4, os.cpu_count() or 1))
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test size: small matrices, short set-up")
    p.add_argument("--inject-nan", action="store_true",
                   help="stream-mixed: submit one NaN matrix, which must count as failed")
    p.add_argument("--n", type=int,
                   help="dense workloads: matrix order in place of the workload's own")
    args = p.parse_args()

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: run from the repository root (src/CMakeLists.txt not found)",
              file=sys.stderr)
        return 2
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        trace_dir = os.path.join(root, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_nan:
        cmd.append("--inject-nan")
    if args.n:
        cmd += ["--n", str(args.n)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
