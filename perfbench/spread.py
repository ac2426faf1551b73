#!/usr/bin/env python3
"""Runs the benchmark several times per workload, one seed per run, and
checks every end-to-end metric by one rule: the quartile spread (the
distance between the first and third quartile as a share of the median)
of each set of runs must stay within the metric's bound, and with
--sets 2 or more each later set's median must not be worse than the
first set's by more than the bound. Every run uses its own seed. A
spread above a third of the bound is flagged as a note. With --baseline
it also makes one traced run per workload and writes everything, with
the median of every detail figure and the host fingerprint, as a
trajectory point.

    python3 perfbench/spread.py --runs 10 [--sets 2] [--workload port-cold] [--baseline perfbench/baseline.json]

Run it from the root of the source tree. It exits 1 when a check fails
or an operation failed.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    """Returns the contract line and the detailed report of one run."""
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True).stdout
    with open(f".bench_build/perfbench-out/{workload}-seed{seed}-trace{trace}.json") as f:
        report = json.load(f)
    return json.loads(out.strip().splitlines()[-1]), report


def worse(first, later, better):
    """Returns the share by which later is worse than first."""
    return later / first - 1 if better == "lower" else first / later - 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--baseline")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    gated = {m["name"]: m for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    point = {}
    ok = True
    for w in names:
        sets, detail, failed, host = [], {}, 0, None
        for s in range(args.sets):
            values = {m: [] for m in gated}
            first = args.first_seed + s * args.runs
            for seed in range(first, first + args.runs):
                res, report = run(w, seed, bench["run_seconds"], 0)
                failed += res["failed"] + (not res["correct"])
                for m in gated:
                    values[m].append(res["metrics"][m]["value"])
                for m, v in report["detail"].items():
                    detail.setdefault(m, []).append(v["value"])
                host = report["host"]
            sets.append(values)
        ok = ok and failed == 0
        entry = {"runs": args.runs, "sets": args.sets, "failed": failed, "end_to_end": {},
                 "detail_median": {m: statistics.median(xs) for m, xs in detail.items()},
                 "host": host}
        for m, spec in gated.items():
            rows = []
            for s, values in enumerate(sets):
                q1, q2, q3 = statistics.quantiles(values[m], n=4)
                row = {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2,
                       "vs_first": worse(rows[0]["median"], q2, spec["better"]) if rows else 0.0}
                good = row["spread"] <= spec["bound"] and row["vs_first"] <= spec["bound"]
                ok = ok and good
                rows.append(row)
                print(f"{w:14} {m:9} set {s + 1} median {q2:12.4f} spread {row['spread']:6.3f}"
                      f" vs set 1 {row['vs_first']:+7.3f} bound {spec['bound']:.2f}"
                      f"{'' if good else '  FAIL'}"
                      f"{'  (spread above bound/3)' if row['spread'] > spec['bound'] / 3 else ''}"
                      f" failed {failed}", flush=True)
            entry["end_to_end"][m] = rows
        if args.baseline:
            res, _ = run(w, args.first_seed, bench["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in res["metrics"].items()}
        point[w] = entry
    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump(point, f, indent=2, sort_keys=True)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
