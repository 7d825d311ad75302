#!/usr/bin/env python3
"""Steadiness check for the SnapPix benchmark.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload and reports, for every metric, the median and the spread: the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median. Untraced runs (--trace 0) pass when every
end-to-end spread except setup_s is below a third of the metric's bound.
Traced runs (--trace 1) pass when the exact counts are identical on
every run.

    python3 perfbench/steady.py --trace 0 --seeds 10
    python3 perfbench/steady.py --trace 1 --seeds 3 --workloads fleet_hw

Run it from the root of the repository. Exits nonzero when a check fails
or a run does not finish correctly.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Per-layer metrics that are exact counts: every run must report the
# same value, whatever the seed.
EXACT = [
    "autograd.nodes_per_forward",
    "sensor.captures",
    "fleet.inferred_share",
    "fleet.slept_share",
    "pj_per_inference",
]


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    done = subprocess.run(args, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or not result.get("correct"):
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}, result {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--config", default="BENCHMARK.json")
    opts = parser.parse_args()

    with open(opts.config, encoding="utf-8") as f:
        bench = json.load(f)
    workloads = opts.workloads or [w["name"] for w in bench["workloads"]]
    seconds = opts.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in workloads:
        runs = []
        for seed in range(opts.first_seed, opts.first_seed + opts.seeds):
            runs.append(run_once(bench["command"], workload, seed, seconds, opts.trace))
            print(f"{workload} seed {seed}: {runs[-1]}", file=sys.stderr, flush=True)
        print(f"== {workload} ({len(runs)} seeds, trace {opts.trace})")
        for name in runs[0]:
            values = [r[name] for r in runs]
            line = f"  {name:<32} median {statistics.median(values):>14.6g}"
            if len(values) >= 2:
                line += f"  spread {spread(values):7.2%}"
            if opts.trace == 0 and name in bounds:
                steady = name == "setup_s" or spread(values) < bounds[name] / 3
                line += f"  bound {bounds[name]:.0%}  {'ok' if steady else 'TOO WIDE'}"
                ok &= steady
            if opts.trace == 1 and name in EXACT:
                exact = len(set(values)) == 1
                line += f"  exact {'ok' if exact else 'DIFFERS ' + str(sorted(set(values)))}"
                ok &= exact
            print(line, flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
