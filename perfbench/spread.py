#!/usr/bin/env python3
"""Run the benchmark once per seed and print each metric's spread.

For every metric: the median of its values over the runs and the distance
between their first and third quartile as a share of that median
(`statistics.quantiles(values, n=4)`), next to the metric's bound from
BENCHMARK.json. Run from the repository root:

    python3 perfbench/spread.py --workload serve-mixed --seeds 1-10
    python3 perfbench/spread.py --workload agrawal-prequential --seeds 1,5,9 --trace 1

Each run is the `command` in BENCHMARK.json with the benchmark's arguments,
as a driver would run it. Exits 1 if a run fails or a spread exceeds its
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values, ok = {}, True
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        run = subprocess.run(cmd, capture_output=True, text=True)
        last = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else "{}"
        result = json.loads(last)
        if run.returncode != 0 or not result.get("correct"):
            ok = False
            print(f"seed {seed}: exit {run.returncode}\n{run.stderr}", file=sys.stderr)
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            if k in bounds or args.trace == "1"), flush=True)

    print(f"\n{args.workload}, {len(seeds(args.seeds))} seeds, {seconds} s")
    print(f"{'metric':40} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        spread = None
        if len(vs) >= 2 and med != 0:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / abs(med)
        bound = bounds.get(name)
        flag = ""
        if spread is not None and bound is not None and name != "setup_s":
            flag = "  OVER" if spread > bound else ("  >1/3" if spread > bound / 3 else "")
            ok &= spread <= bound
        shown = "-" if spread is None else f"{spread:.4f}"
        print(f"{name:40} {med:14.6g} {shown:>8} {bound if bound is not None else '':>6}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
