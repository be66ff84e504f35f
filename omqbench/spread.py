#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints, per metric, the median
and the spread (interquartile range over the median) of the seeds' values.

    python3 omqbench/spread.py --workload cold_query --seeds 1-10 --seconds 36 \
        [--trace 1] [--json omqbench/seed_numbers.json]

Run from the repository root; it runs the command of BENCHMARK.json once
per seed.  A metric's spread must stay below its bound in BENCHMARK.json
(below a third of it, to leave room).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default="36")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--json", help="merge the medians and quartiles into this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    cmd = bench["command"]
    values = {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            cmd + ["--workload", args.workload, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, env=os.environ,
        )
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        try:
            result = json.loads(last)
        except json.JSONDecodeError:
            sys.exit(f"seed {seed}: no result (exit {out.returncode})\n{out.stderr[-2000:]}")
        if out.returncode != 0 or not result["correct"]:
            sys.exit(f"seed {seed}: incorrect run (exit {out.returncode})\n{out.stderr[-2000:]}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: ok, {result['attempted']} ops", file=sys.stderr)

    summary = {}
    print(f"{'metric':<36} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- above a third of its bound"
        print(f"{name:<36} {med:>14.3f} {spread:>8.3f} {bound if bound is not None else '':>6}{flag}")
    if args.json:
        # Merge this workload's figures into a JSON file keyed by workload.
        try:
            with open(args.json) as f:
                doc = json.load(f)
        except FileNotFoundError:
            doc = {}
        key = "per_layer" if args.trace == "1" else "end_to_end"
        doc.setdefault(key, {})[args.workload] = {
            "seeds": args.seeds, "seconds": int(args.seconds), "metrics": summary}
        with open(args.json, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
