#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed on each named workload (untraced) and
prints, per metric, the median of the runs and the distance between the
first and third quartiles as a share of that median, next to the metric's
bound from BENCHMARK.json. A metric is steady when its spread stays below a
third of its bound (setup_s is reported but not held to that). Run from the
repository root:

    python3 perfbench/spread.py --workload dense-values --seeds 1 2 3 4 5
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: run not correct: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    spec = json.load(open("BENCHMARK.json"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workload:
        runs = [run_once(workload, s, args.seconds) for s in args.seeds]
        print(f"{workload}: {len(runs)} runs")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            ok = spread < bound / 3 or name == "setup_s"
            steady &= ok
            print(f"  {name:16s} median {med:12.5g}  spread {spread:7.2%}  bound {bound:5.0%}"
                  f"  {'ok' if ok else 'WIDE'}  runs: {' '.join(f'{v:.4g}' for v in values)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
