#!/usr/bin/env python3
"""Runs one workload of the benchmark on several seeds and reports, per
end-to-end metric, the median and the distance between the first and third
quartile as a share of the median, next to the metric's bound.

    python3 perfbench/spread.py --workload serve-2k --seeds 1-10 [--trace 0]

Run it from the repository root; it uses the command in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        run = subprocess.run(cmd, capture_output=True, text=True)
        if run.returncode != 0:
            sys.stderr.write(run.stderr)
            sys.exit(f"seed {seed}: exit code {run.returncode}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        assert result["correct"], f"seed {seed}: incorrect"
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':<36} {'median':>14} {'iqr/median':>10} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else "  <-- above bound/3"
        print(f"{name:<36} {med:>14.4f} {spread:>10.4f} {bound if bound else '':>6}{flag}")
        print("    " + " ".join(f"{v:.4g}" for v in vals))


if __name__ == "__main__":
    main()
