#!/usr/bin/env python3
"""Smoke test of the benchmark itself. Run from the repository root:

    python3 perfbench/smoke.py

Runs every workload (the gated ones in BENCHMARK.json and the ungated
dense-vectors) at tiny size, untraced and traced, and checks that:
  * each run is correct with zero failed operations;
  * every metric BENCHMARK.json names appears with its unit, and no other;
  * the traced run reproduces the untraced output fingerprint;
  * an invalid request (a NaN matrix submitted to the service) is counted as
    failed instead of crashing the run;
  * in a directory holding only BENCHMARK.json and perfbench/, the benchmark
    exits non-zero without printing a result.
Exits 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

SECONDS = "1"


def run(workload, trace, *extra, cwd="."):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", SECONDS, "--trace", trace, "--tiny", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    return proc


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    fingerprint = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("fingerprint "))
    return result, fingerprint


def main():
    spec = json.load(open("BENCHMARK.json"))
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    # dense-vectors is not in the gated set (too unsteady on a shared host)
    # but stays runnable for its per-layer split; keep it working too.
    workloads = ["dense-values", "dense-vectors", "stream-mixed"]
    check({w["name"] for w in spec["workloads"]} <= set(workloads),
          "BENCHMARK.json names only workloads the benchmark runs")
    for workload in workloads:
        hashes = {}
        for trace in ("0", "1"):
            proc = run(workload, trace)
            tag = f"{workload} trace={trace}"
            check(proc.returncode == 0, f"{tag}: exit code 0")
            if proc.returncode != 0:
                print(proc.stderr[-2000:])
                continue
            result, fp = parse(proc)
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{tag}: correct, nothing failed ({result['attempted']} attempted)")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == expected[trace], f"{tag}: every named metric with its unit")
            hashes[trace] = fp["output_hash"]
        check(len(hashes) == 2 and hashes["0"] == hashes["1"],
              f"{workload}: traced run reproduces the output hash {hashes}")

    proc = run("stream-mixed", "0", "--inject-nan")
    ok = proc.returncode == 0
    if ok:
        result, _ = parse(proc)
        ok = result["failed"] == 1
    check(ok, "stream-mixed: a NaN request is counted as failed, the run completes")

    bare = os.path.join(".bench_build", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    proc = run("dense-values", "0", cwd=bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the repository sources: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
