#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

Usage, from the root of a checkout:

    python3 perfbench/steadiness.py --seeds 1-10
    python3 perfbench/steadiness.py --workloads run-grid --seeds 1-5
    python3 perfbench/steadiness.py --seeds 1-10 --record "seed commit, 2-core host"

Runs perfbench/run.py once per workload and seed (untraced, with the
run length BENCHMARK.json sets) and reports, for each end-to-end metric,
the median, the quartiles (statistics.quantiles, n=4) and the spread: the
distance between the quartiles as a share of the median. A spread should
stay under a third of the metric's bound. --record appends the medians and
spreads as a point to perfbench/trajectory.json, with the per-layer
metrics of one traced run per workload (first seed).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(bench, workload, seed, trace=0):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    manifest = next((json.loads(l[len("manifest "):]) for l in lines
                     if l.startswith("manifest ")), {})
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: failed operations\n{proc.stderr}")
    return manifest, {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--record", metavar="LABEL",
                   help="append the figures to perfbench/trajectory.json")
    args = p.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    point = {"label": args.record, "run_seconds": bench["run_seconds"],
             "seeds": seeds, "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds:
            manifest, metrics = run_once(bench, workload, seed)
            point.setdefault("rev", manifest.get("rev"))
            point.setdefault("ocaml", manifest.get("ocaml"))
            point.setdefault("nproc", manifest.get("nproc"))
            for k, v in metrics.items():
                values.setdefault(k, []).append(v)
            print(f"{workload} seed {seed}: " +
                  " ".join(f"{k}={v:.6g}" for k, v in metrics.items()), flush=True)
        figures = {}
        for k, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            figures[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "runs": len(vs)}
            share = spread / bounds[k]
            if k != "setup_s":
                worst = max(worst, share)
            flag = "" if share < 1 / 3 else "  <-- above a third of the bound"
            print(f"  {workload:14s} {k:15s} median {med:12.6g}  spread {spread:7.4f}"
                  f"  bound {bounds[k]:.2f}{flag}", flush=True)
        point["workloads"][workload] = {"end_to_end": figures}
        if args.record:
            _, layers = run_once(bench, workload, seeds[0], trace=1)
            point["workloads"][workload]["per_layer"] = layers
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.3f}")
    if args.record:
        path = os.path.join(ROOT, "perfbench", "trajectory.json")
        points = []
        if os.path.exists(path):
            with open(path) as f:
                points = json.load(f)["points"]
        points.append(point)
        with open(path, "w") as f:
            json.dump({"points": points}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
