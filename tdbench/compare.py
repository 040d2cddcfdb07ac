#!/usr/bin/env python3
"""Runs two interleaved sets of benchmark runs of the same code and compares them.

    python3 tdbench/compare.py [--runs 10] [--sets 2] [--workloads a,b] [--seconds S]

Run it from the root of a checkout. Run i of set A and run i of set B go
back to back, each with its own seed, so slow drift of the host hits both
sets alike. For every workload and end-to-end metric it prints each set's
median and quartiles (statistics.quantiles, n=4), the spread (Q3 - Q1) /
median, and whether the sets agree: the spread within the metric's bound
(setup_s excepted) and set B's median no worse than set A's by more than
the bound. It also checks that the share of failed operations is the same
in both sets. Exit code 0 when everything agrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace="0"):
    cmd = [sys.executable, os.path.join(ROOT, "tdbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", trace]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
        raise SystemExit("run failed: %s seed %d (exit %d)" % (workload, seed, out.returncode))
    result = json.loads(lines[-1])
    # "info <name>=<value>" lines: figures each run prints beside its result.
    result["info"] = {k: float(v) for line in lines if line.startswith("info ")
                      for k, v in [line[5:].split("=", 1)]}
    if not result["correct"]:
        raise SystemExit("run incorrect: %s seed %d" % (workload, seed))
    return result


def describe(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--sets", type=int, choices=[1, 2], default=2)
    parser.add_argument("--workloads", help="comma-separated subset (default: all)")
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    ok = True
    seed = args.first_seed
    for workload in workloads:
        sets = [[] for _ in range(args.sets)]
        for i in range(args.runs):
            for s in range(args.sets):
                start = time.time()
                result = run_once(workload, seed, seconds)
                print("%s set %s run %d seed %d (%.0f s): %s" % (
                    workload, "AB"[s], i + 1, seed, time.time() - start,
                    " ".join("%s=%.5g" % (k, v["value"]) for k, v in sorted(result["metrics"].items()))),
                    flush=True)
                sets[s].append(result)
                seed += 1
        print("\n%s (%d runs per set, %d s each)" % (workload, args.runs, seconds))
        print("  %-12s %-4s %12s %12s %12s %8s %6s  %s" % (
            "metric", "set", "median", "q1", "q3", "spread", "bound", "verdict"))
        for name, m in bounds.items():
            stats = []
            for s in range(args.sets):
                values = [r["metrics"][name]["value"] for r in sets[s]]
                stats.append(describe(values))
            for s, (med, q1, q3, spread) in enumerate(stats):
                verdict = []
                if name != "setup_s":
                    verdict.append("steady" if spread <= m["bound"] / 3 else
                                   "within bound" if spread <= m["bound"] else "UNSTEADY")
                if s == 1:
                    base = stats[0][0]
                    worse = (med - base) / base if m["better"] == "lower" else (base - med) / base
                    agrees = worse <= m["bound"]
                    verdict.append("agrees (%+.1f%%)" % (100 * worse) if agrees else
                                   "DISAGREES (%+.1f%% worse)" % (100 * worse))
                    ok = ok and agrees
                ok = ok and (name == "setup_s" or spread <= m["bound"])
                print("  %-12s %-4s %12.5g %12.5g %12.5g %7.2f%% %5.0f%%  %s" % (
                    name, "AB"[s], med, q1, q3, 100 * spread, 100 * m["bound"], ", ".join(verdict)))
        for name in sorted(sets[0][0]["info"]):
            for s in range(args.sets):
                med, q1, q3, spread = describe([r["info"][name] for r in sets[s]])
                print("  %-12s %-4s %12.5g %12.5g %12.5g %7.2f%%   info (not in BENCHMARK.json)" % (
                    name, "AB"[s], med, q1, q3, 100 * spread))
        shares = []
        for s in range(args.sets):
            attempted = sum(r["attempted"] for r in sets[s])
            failed = sum(r["failed"] for r in sets[s])
            shares.append(failed / attempted)
            print("  set %s: %d operations attempted, %d failed" % ("AB"[s], attempted, failed))
        if len(set(shares)) > 1:
            ok = False
            print("  FAILED-OPERATION SHARES DIFFER: %s" % shares)
    print("\nall sets agree" if ok else "\nSETS DISAGREE")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
