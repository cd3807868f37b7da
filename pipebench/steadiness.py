#!/usr/bin/env python3
"""A/A steadiness of the pipeline benchmark.

Runs every workload N times (untraced), each with another seed, and writes
for each end-to-end metric the median, the quartiles and the spread
(q3 - q1) / median, as `statistics.quantiles(values, n=4)` gives them.

    python3 pipebench/steadiness.py [--runs 10] [--first-seed 101] \
        [--workloads explore-shallow,explore-deep,serve-append] \
        [--out pipebench/aa_spread.json]

Run from the repository root. A later change can compare its gain on a
metric with that metric's spread here to tell whether the gain is
resolvable.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    bench = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out", default=os.path.join(HERE, "aa_spread.json"))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {
        "run_seconds": bench["run_seconds"],
        "runs": args.runs,
        "seeds": [args.first_seed + i for i in range(args.runs)],
        "host_cpus": os.cpu_count(),
        "machine": platform.machine(),
        "workloads": {},
    }
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in report["seeds"]:
            started = time.time()
            run = subprocess.run(
                ["bash", os.path.join(HERE, "run.sh"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True,
            )
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if run.returncode == 0 and lines else None
            took = time.time() - started
            if result is None or not result["correct"] or set(result["metrics"]) != set(bounds):
                ok = False
                print(f"{workload} seed {seed}: bad run ({took:.0f} s)\n{run.stderr[-2000:]}", file=sys.stderr)
                continue
            print(f"{workload} seed {seed}: {took:.0f} s, attempted {result['attempted']}, "
                  f"failed {result['failed']}", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {}
        for name, vals in sorted(values.items()):
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            summary[name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals,
            }
            print(f"  {workload:16} {name:18} median {median:10.3f}  q1 {q1:10.3f}  "
                  f"q3 {q3:10.3f}  spread {spread:.3f}  bound {bounds[name]}", file=sys.stderr)
        report["workloads"][workload] = summary
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
