#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs the BENCHMARK.json command on each workload with a series of seeds,
in one or more sets, and reports for every (workload, end-to-end metric)
the spread of its values -- the distance between the first and third
quartile as a share of the median -- and, with two or more sets, how far
each later set's median moved from the first set's in the metric's worse
direction. Both are printed against the metric's bound from
BENCHMARK.json. Exit status is 1 when any spread or median drift
exceeds its bound, 0 otherwise.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --runs 5 --workloads inspect --seed0 500
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace=0):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.time() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {res}")
    return res, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="seeds per workload per set")
    ap.add_argument("--sets", type=int, default=1, help="repeated sets over the same seeds")
    ap.add_argument("--seed0", type=int, default=1000, help="first seed")
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--seconds", type=int, default=0, help="override run_seconds")
    ap.add_argument("--out", default=os.path.join(".bench_build", "steady.json"))
    a = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    seconds = a.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if a.workloads:
        names = a.workloads.split(",")
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    raw = {}
    for s in range(a.sets):
        for w in names:
            for i in range(a.runs):
                res, wall = run_once(spec["command"], w, a.seed0 + i, seconds)
                raw.setdefault(w, []).append(res["metrics"])
                print(f"set {s + 1} {w} seed {a.seed0 + i}: {wall:.1f}s", file=sys.stderr)
                os.makedirs(os.path.dirname(a.out), exist_ok=True)
                json.dump(raw, open(a.out, "w"), indent=1)

    bad = 0
    print(f"{'workload':16} {'metric':14} {'bound':>6} {'spread':>7} {'drift':>7}  median(s)")
    for w in names:
        sets = [raw[w][k * a.runs:(k + 1) * a.runs] for k in range(a.sets)]
        for name, m in bounds.items():
            series = [[r[name]["value"] for r in runs] for runs in sets]
            spreads = [spread(v) for v in series]
            meds = [statistics.median(v) for v in series]
            drift = 0.0
            for med in meds[1:]:
                d = (med - meds[0]) / meds[0]
                if m["better"] == "higher":
                    d = -d
                drift = max(drift, d)
            flag = ""
            if max(spreads) > m["bound"]:
                flag, bad = "SPREAD", bad + 1
            elif max(spreads) > m["bound"] / 3:
                flag = "spread>bound/3"
            if drift > m["bound"]:
                flag, bad = flag + " DRIFT", bad + 1
            print(f"{w:16} {name:14} {m['bound']:6.3f} {max(spreads):7.3f} {drift:7.3f}  "
                  + " ".join(f"{x:.4g}" for x in meds) + f"  {flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
