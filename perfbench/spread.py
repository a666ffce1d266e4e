"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--runs 10] [--sets 2] [--workload NAME ...] [--baseline]

Run from the root of a checkout.  One set is --runs timed runs per
workload with seeds 1..runs; the sets run one after the other.  Per set,
workload and end-to-end metric this reports the median and the distance
between the first and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), next to the bound in
BENCHMARK.json; a spread under a third of its bound counts as steady.
With two or more sets it also reports by how much each later set's median
is worse than the first set's, which must stay within the bound.  Exits
nonzero unless every metric is steady and every set agrees.

With --baseline it also makes one traced run per workload (seed 1) and
writes everything, with the provenance, to perfbench/baseline.json.
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


def one_run(spec, workload, seed, trace):
    """One run's full result: the JSON line plus notes and provenance."""
    result = os.path.join(ROOT, ".bench_work", f"spread-{workload}-{seed}-{trace}.json")
    os.makedirs(os.path.dirname(result), exist_ok=True)
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
                             "--out", result]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    with open(result, encoding="utf-8") as fh:
        full = json.load(fh)
    os.remove(result)
    return full


def spread(values):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def one_set(spec, workload, runs, bounds):
    """Runs seeds 1..runs of a workload; returns (row, steady)."""
    results = [one_run(spec, workload, seed, 0) for seed in range(1, runs + 1)]
    failed = sum(r["failed"] for r in results)
    row = {"runs": runs, "failed": failed,
           "attempted": sum(r["attempted"] for r in results), "metrics": {},
           "provenance": results[0]["provenance"]}
    print(f"{workload}: {runs} runs, {failed} failed jobs", flush=True)
    steady = failed == 0
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        median, share = spread(values)
        ok = share < bound / 3
        steady &= ok
        row["metrics"][name] = {
            "median": median, "spread": share, "unit": results[0]["metrics"][name]["unit"],
            "values": values,
        }
        print(f"  {name:16s} median {median:10.5g}  spread {share:6.3f}  "
              f"bound {bound:5.2f}  {'ok' if ok else 'NOT STEADY'}  "
              f"[{' '.join(f'{v:.4g}' for v in values)}]", flush=True)
    return row, steady


def agreement(sets, workload, better, bounds):
    """How much worse each later set's medians are than the first set's."""
    out, agree = {}, True
    for name, bound in bounds.items():
        medians = [s[workload]["metrics"][name]["median"] for s in sets]
        sign = 1 if better[name] == "lower" else -1
        worse = max(sign * (m - medians[0]) / medians[0] for m in medians[1:])
        ok = worse <= bound
        agree &= ok
        out[name] = {"medians": medians, "worse_by": worse, "bound": bound}
        print(f"  {workload:16s} {name:16s} medians "
              f"{' '.join(f'{m:.5g}' for m in medians)}  worse by {worse:+.3f}  "
              f"bound {bound:4.2f}  {'ok' if ok else 'DISAGREE'}", flush=True)
    return out, agree


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sets, ok = [], True
    for k in range(args.sets):
        print(f"set {k + 1} of {args.sets}", flush=True)
        rows = {}
        for workload in workloads:
            rows[workload], steady = one_set(spec, workload, args.runs, bounds)
            ok &= steady
        sets.append(rows)
    agree = {}
    if len(sets) > 1:
        print("agreement of the sets' medians with the first set's", flush=True)
        for workload in workloads:
            agree[workload], same = agreement(sets, workload, better, bounds)
            ok &= same
    if args.baseline:
        traced = {}
        for workload in workloads:
            full = one_run(spec, workload, 1, 1)
            traced[workload] = {
                "per_layer_seed_1": {k: v["value"] for k, v in full["metrics"].items()},
                "notes": full["notes"],
            }
        with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
            json.dump({"provenance": sets[0][workloads[0]]["provenance"],
                       "run_seconds": spec["run_seconds"], "sets": sets,
                       "agreement": agree, "traced": traced}, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
