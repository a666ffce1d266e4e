"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about a minute and exits nonzero
on the first failure.  It checks that

* a tiny version of every workload runs clean, timed and traced, and
  emits exactly the metrics BENCHMARK.json names, with their units;
* the checker fails a job whose output was deliberately corrupted, and
  the golden comparison notices a changed number, so a broken checker
  cannot pass silently;
* the benchmark refuses to run, printing no result, in a directory that
  holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(HERE)


def _corrupt(kind, doc):
    """A copy of the report with one answer made wrong."""
    bad = copy.deepcopy(doc)
    if kind == "attractor":
        bad["records"].pop()
    elif kind in ("zeros", "jensen"):
        bad["roots"][0]["multiplicity"] += 1
    elif kind == "onset":
        bad["trace"][0]["nonreal"] += 1
    elif kind == "lp-test":
        bad["nonreal_counts"][0] += 1
    elif kind == "iterate":
        bad["nonreal"] += 1
    elif kind == "converge":
        bad["samples"].pop()
    elif kind == "discrepancy":
        bad["discrepancy"] = -1.0
    elif kind == "construct":
        bad["nonreal_totals"]["1"] = 1
    elif kind == "verify-construct":
        bad["plan"]["gammas"][0] = "3"
    return bad


def _perturbed(summary):
    """The summary with its first float moved by one part in a million."""
    if isinstance(summary, float):
        return summary * (1 + 1e-6) + 1e-6, True
    if isinstance(summary, list):
        out = list(summary)
        for i, item in enumerate(out):
            out[i], done = _perturbed(item)
            if done:
                return out, True
    return summary, False


def _expect(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def check_workload(name, spec):
    for trace in (False, True):
        cycles = run.run_workload(ROOT, name, 2, 0, trace=trace, tiny=True)
        runs = [r for c in cycles for r in c]
        bad = [f"{r.job.slot}: {r.problems}" for r in runs if not r.ok]
        _expect(not bad, f"{name} trace={trace}: {bad}")
        if trace:
            metrics, wanted = run.per_layer(cycles), spec["per_layer"]
        else:
            metrics, wanted = run.end_to_end(cycles)[0], spec["end_to_end"]
        units = {m["name"]: m["unit"] for m in wanted}
        got = {k: u for k, (_v, u) in metrics.items()}
        _expect(got == units, f"{name} trace={trace}: metrics {got} != {units}")
    corrupted = 0
    for r in runs:
        if r.trace is not None:
            continue
        kind = r.job.expect["kind"]
        parent = next((x.doc for x in runs if x.job.slot == r.job.after), None)
        problems = check.check_invariants(r.job, _corrupt(kind, r.doc), parent)
        _expect(problems, f"{name}/{r.job.slot}: corrupted {kind} report passed")
        summary = check.summary(kind, r.doc)
        moved, changed = _perturbed(summary)
        if changed:
            _expect(check.same(summary, moved), f"{name}/{r.job.slot}: golden missed a change")
        corrupted += 1
    print(f"selftest {name}: ok ({len(runs)} jobs, {corrupted} corruptions caught)")


def check_refuses_without_source():
    bare = os.path.join(ROOT, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        spec = json.load(open(os.path.join(bare, "BENCHMARK.json"), encoding="utf-8"))
        out = subprocess.run(
            spec["command"] + ["--workload", sorted(WORKLOADS)[0], "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    _expect(out.returncode != 0 and '"correct"' not in out.stdout,
            "benchmark ran without the zerodyn source")
    # An argparse error also exits nonzero; only the source check counts.
    _expect("no zerodyn source" in out.stderr,
            f"bare checkout refused for another reason: {out.stderr.strip()}")
    print("selftest bare checkout: refused as it should")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    _expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
            "BENCHMARK.json workloads differ from workloads.py")
    _expect(run.tail([float(i) for i in range(1, 29)]) == (64, 18.0), "tail percentile")
    run.warm_up(ROOT)
    for name in WORKLOADS:
        check_workload(name, spec)
    check_refuses_without_source()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
