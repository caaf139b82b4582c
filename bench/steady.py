"""Steadiness of the benchmark on one commit.

    python3 bench/steady.py [--runs 10] [--first-seed 1]

Runs bench/run.py --trace 0 for run_seconds once per seed and workload, one
process at a time, with the workloads interleaved so that a slow spell of the machine
falls on all of them alike. Prints, per workload and end-to-end metric, the
median and quartiles over the runs and the spread: the distance between the
quartiles over the median. The bounds in BENCHMARK.json are set from these
spreads. The raw results go to bench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results, bounds):
    rows = []
    for workload, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else 0.0
            rows.append((workload, name, med, q1, q3, spread, bounds.get(name), shares))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in workloads:
            r = run_once(w, seed, seconds)
            results[w].append(r)
            vals = "  ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
            print(f"{w:9s} seed {seed:3d}  {vals}", flush=True)

    print(f"\n{'workload':9s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s}  failed share")
    for w, name, med, q1, q3, spread, bound, shares in summarize(results, bounds):
        mark = "" if bound is None or name == "setup_s" or spread <= bound / 3 else "  > bound/3"
        print(f"{w:9s} {name:12s} {med:10.4g} {q1:10.4g} {q3:10.4g} {spread:7.3f} "
              f"{bound if bound is not None else '-':>6}  {sorted(shares)}{mark}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w") as f:
        json.dump(results, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
