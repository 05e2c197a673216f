#!/usr/bin/env python3
"""Steadiness tool: run the benchmark many times and compare two sets of runs.

    python3 perfbench/steady.py --a <checkout> [--b <checkout>] [--runs 10]

Each checkout is a tree holding BENCHMARK.json and the program, for
instance the parent commit and a change. Without --b both sets run from
the --a checkout: two sets of the same code. Every workload of
BENCHMARK.json runs for its run_seconds; run i of a workload uses seed i+1
on both sides, the sides alternate, and which side goes first alternates
too. For every end-to-end metric of every workload the tool prints each
side's median and quartiles (statistics.quantiles, n=4) and the spread
(quartile distance over the median) against the metric's bound, how much
worse B's median is than A's, and every run's value in seed order.

It exits 1 if a run fails or is not correct, a spread exceeds its bound,
the two sides' shares of failed operations differ, or the medians do not
hold: B may be worse than A by at most the bound, and when both sides are
the same code they must agree within the bound in either direction and
every metric in DETERMINISTIC must read exactly the same on both sides for
every seed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

# (workload, metric) pairs that depend only on the seed.
DETERMINISTIC = {("embedded-ingest", "sim_write_ops_s")}


def run_once(checkout, spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    p = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    out = json.loads(p.stdout.strip().splitlines()[-1])
    if not out["correct"]:
        raise RuntimeError(f"{checkout}: {workload} seed {seed}: not correct\n{p.stdout[-2000:]}")
    return out


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse(metric, a, b):
    """Share by which b is worse than a (negative when better)."""
    if metric["better"] == "lower":
        return (b - a) / a
    return (a - b) / a


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--a", required=True)
    ap.add_argument("--b")
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    b = args.b or args.a
    same = os.path.realpath(args.a) == os.path.realpath(b)
    spec = json.load(open(os.path.join(args.a, "BENCHMARK.json")))
    sides = [("A", args.a), ("B", b)]
    ok = True
    for wl in (w["name"] for w in spec["workloads"]):
        runs = {"A": {}, "B": {}}  # side -> seed -> result
        for i in range(args.runs):
            seed = i + 1
            for side, checkout in (sides if i % 2 == 0 else sides[::-1]):
                try:
                    runs[side][seed] = run_once(checkout, spec, wl, seed)
                except Exception as e:  # report and keep going
                    print(e, file=sys.stderr)
                    ok = False
        print(f"== {wl}")
        shares = {}
        for side, _ in sides:
            shares[side] = {r["failed"] / r["attempted"] for r in runs[side].values()}
            print(f"   {side}: {len(runs[side])} runs, failed share {sorted(shares[side])}")
        if shares["A"] != shares["B"]:
            print(f"   failed shares differ: {shares['A']} vs {shares['B']}")
            ok = False
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            line = f"   {name:16s}"
            meds = {}
            for side, _ in sides:
                vals = [r["metrics"][name]["value"] for r in runs[side].values()]
                if len(vals) < 2:
                    continue
                med, q1, q3, spread = summary(vals)
                meds[side] = med
                flag = "" if spread <= bound else " SPREAD>BOUND"
                ok = ok and not flag
                line += f" {side}: med {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}/{bound}{flag}"
            if len(meds) == 2:
                w = worse(m, meds["A"], meds["B"])
                if abs(w) <= bound:
                    verdict = "agree"
                elif w > 0:
                    verdict = "WORSE"
                else:
                    verdict = "DISAGREE" if same else "better"
                ok = ok and verdict in ("agree", "better")
                line += f" | B worse by {w:+.3f} -> {verdict}"
            print(line)
            for side, _ in sides:
                by_seed = " ".join(f"{r['metrics'][name]['value']:.6g}" for _, r in sorted(runs[side].items()))
                print(f"      {side} by seed: {by_seed}")
            if same and (wl, name) in DETERMINISTIC:
                differ = [s for s in runs["A"] if s in runs["B"]
                          and runs["A"][s]["metrics"][name]["value"] != runs["B"][s]["metrics"][name]["value"]]
                ok = ok and not differ
                print(f"   {name} same on both sides for every seed: "
                      + ("yes" if not differ else f"NO, seeds {differ}"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
