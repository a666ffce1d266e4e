"""zerodyn benchmark: closed-loop CLI workloads, timed or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client runs one job at a time; each
job is a fresh interpreter calling ``zerodyn.cli.main`` on inputs this
benchmark generated from the seed (see workloads.py), so every job pays
the import as a CLI user does and no in-process cache outlives a job.
The run repeats whole cycles of jobs until S seconds have passed.  Every
output is checked after its job has exited (check.py), outside the timed
region.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 each job runs once untraced and once
traced (spans.py), and the line holds the per-layer metrics.  The lines
before it print every metric with its unit, the run's provenance, and
failed_ratio, which stays in ``failed``/``attempted`` of the JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
from spans import self_times  # noqa: E402
from workloads import WORKLOADS, cycle_jobs  # noqa: E402

DEFAULT_SEED = 1
JOB_TIMEOUT_S = 25  # about 5x the slowest job at the seed commit
HARD_LIMIT_S = 120  # no job starts past this: a traced pair still ends by 170 s
TAIL_BEYOND = 10  # jobs that must lie beyond the tail percentile


@dataclass
class JobRun:
    job: object
    wall: float
    setup: float | None
    rc: int | None
    doc: dict | None
    problems: list
    trace: dict | None = None
    maxrss_kb: int | None = None
    golden: bool | None = None  # compared with a golden summary; None: no goldens apply

    @property
    def ok(self):
        return not self.problems


def _git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except OSError:
        return None
    return out.stdout.strip() or None


def provenance(root):
    import mpmath
    import mpmath.libmp

    try:
        import gmpy2  # noqa: F401

        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    return {
        "git_sha": _git_sha(root),
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy2": has_gmpy2,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_job(root, job, workdir, tag, trace=False, parent_doc=None):
    """Spawn one job, wait for it, then check its output (untimed)."""
    out = os.path.join(workdir, f"{tag}.out.json")
    meta_path = os.path.join(workdir, f"{tag}.meta.json")
    err_path = os.path.join(workdir, f"{tag}.stderr")
    cmd = [sys.executable, os.path.join(HERE, "job.py"), meta_path,
           "1" if trace else "0", "--", *job.argv, "--output", out]
    with open(err_path, "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.DEVNULL, stderr=err)
        # wait(timeout=...) polls with sleeps of up to 50 ms, which would
        # round every job time up; a blocking wait plus a killer does not.
        killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            rc = proc.wait()
        finally:
            killer.cancel()
        wall = time.monotonic() - start
        if wall >= JOB_TIMEOUT_S:
            rc = None
    meta, doc, problems = {}, None, []
    try:
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"no report: {exc}")
    if rc != 0:
        with open(err_path, encoding="utf-8") as fh:
            last = (fh.read().strip().splitlines() or [""])[-1]
        problems.append(f"exit code {rc}: {last}")
    if meta.get("error"):
        problems.append(meta["error"])
    if doc is not None and not problems:
        problems = check.check_invariants(job, doc, parent_doc)
    setup = meta["ready"] - start if "ready" in meta else None
    trace_data = {k: meta[k] for k in ("spans", "counters") if k in meta} or None
    return JobRun(job, wall, setup, rc, doc, problems, trace_data, meta.get("maxrss_kb"))


def tail(times):
    """(percentile, value): the highest whole percentile with at least
    TAIL_BEYOND jobs beyond it, by nearest rank; the maximum if too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100, ordered[-1]
    pct = (100 * (n - TAIL_BEYOND)) // n
    rank = max(1, -(-pct * n // 100))  # ceil(pct * n / 100)
    return pct, ordered[rank - 1]


def _load_golden(workload):
    path = os.path.join(HERE, "golden", f"{workload}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["jobs"]
    except FileNotFoundError:
        return {}


def run_workload(root, workload, seed, seconds, trace=False, tiny=False, log=None):
    """Run whole cycles until ``seconds`` pass; return the job runs by cycle."""
    workdir = os.path.join(root, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    golden = _load_golden(workload) if seed == DEFAULT_SEED and not tiny else {}
    begin = time.monotonic()
    cycles = []
    try:
        while not cycles or time.monotonic() - begin < seconds:
            c = len(cycles)
            runs = []
            docs = {}
            for job in cycle_jobs(workload, seed, c, workdir, tiny):
                if time.monotonic() - begin > HARD_LIMIT_S:
                    break
                parent = docs.get(job.after)
                modes = (False, True) if trace else (False,)
                for traced in modes:
                    tag = f"c{c}-{job.slot}-{int(traced)}"
                    r = run_job(root, job, workdir, tag, traced, parent)
                    key = f"c{c}/{job.slot}"
                    if golden and r.ok:
                        r.golden = key in golden
                    if r.golden:
                        diff = check.same(check.summary(job.expect["kind"], r.doc), golden[key])
                        if diff:
                            r.problems.append(f"differs from golden: {diff}")
                    if log and not r.ok:
                        log(f"FAILED {tag}: {'; '.join(r.problems)}")
                    runs.append(r)
                docs[job.slot] = r.doc
            cycles.append(runs)
            if time.monotonic() - begin > HARD_LIMIT_S:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return cycles


def end_to_end(cycles):
    runs = [r for c in cycles for r in c]
    walls = [r.wall for r in runs]
    pct, tail_value = tail(walls)
    setups = [r.setup for r in runs if r.setup is not None]
    rss_kb = max((r.maxrss_kb for r in runs if r.maxrss_kb is not None), default=float("nan"))
    answers = sum(check.answers(r.doc) for r in runs if r.ok)
    metrics = {
        "answers_per_s": (answers / sum(walls), "1/s"),
        "job_p50_s": (statistics.median(walls), "s"),
        "job_tail_s": (tail_value, "s"),
        "setup_s": (statistics.median(setups) if setups else float("nan"), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    notes = {"tail_percentile": pct, "jobs": len(runs), "answers": answers}
    return metrics, notes


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(cycles):
    untraced = [r for c in cycles for r in c if r.trace is None and r.rc is not None]
    traced = [r for c in cycles for r in c if r.trace is not None]
    calls, self_s, counters = {}, {}, {}
    for r in traced:
        for name, (n, s) in self_times(r.trace["spans"]).items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + s
        for name, v in r.trace["counters"].items():
            if name.endswith("_max"):
                counters[name] = max(counters.get(name, 0), v)
            else:
                counters[name] = counters.get(name, 0) + v
    n_cycles = len(cycles)
    per_cycle = lambda v: v / n_cycles  # noqa: E731

    def s(name):
        return (per_cycle(self_s.get(name, 0.0)), "s/cycle")

    def n(name):
        return (per_cycle(calls.get(name, 0)), "calls/cycle")

    def count(name, unit="count/cycle"):
        return (per_cycle(counters.get(name, 0)), unit)

    formats_s = sum(v for k, v in self_s.items() if k.startswith("formats."))
    roots_calls = calls.get("roots.find_roots", 0)
    predicate_calls = calls.get("construct.stage_predicate", 0)
    return {
        "formats.self_s": (per_cycle(formats_s), "s/cycle"),
        "series.polya_lp_test.self_s": s("series.polya_lp_test"),
        "series.truncated_power.self_s": s("series.truncated_power"),
        "poly.apply_operator.calls": n("poly.apply_operator"),
        "poly.apply_operator.self_s": s("poly.apply_operator"),
        "poly.translate.self_s": s("poly.translate"),
        "poly.rescale_iterate.self_s": s("poly.rescale_iterate"),
        "poly.coeff_bits_max": (counters.get("poly.coeff_bits_max", 0), "bits"),
        "roots.find_roots.calls": n("roots.find_roots"),
        "roots.find_roots.self_s": s("roots.find_roots"),
        "roots.find_roots.degree_sum": count("roots.find_roots.degree_sum", "degree/cycle"),
        "roots.find_roots.unique_ratio": (
            _ratio(counters.get("roots.find_roots.distinct_inputs", 0), roots_calls), "ratio"),
        "roots.find_roots.no_convergence": count("roots.find_roots.no_convergence"),
        "roots.exact_profile.calls": n("roots.exact_profile"),
        "roots.exact_profile.self_s": s("roots.exact_profile"),
        "roots.exact_profile.degree_max": (
            counters.get("roots.exact_profile.degree_max", 0), "degree"),
        "roots.count_nonreal.floating_fallbacks": count("roots.count_nonreal.floating_fallbacks"),
        "roots.roots_in_disk.calls": n("roots.roots_in_disk"),
        "roots.roots_in_disk.self_s": s("roots.roots_in_disk"),
        "roots.boundary_ties": count("roots.boundary_ties"),
        "dynamics.onset_scan.self_s": s("dynamics.onset_scan"),
        "dynamics.convergence_experiment.self_s": s("dynamics.convergence_experiment"),
        "dynamics.attractor_experiment.self_s": s("dynamics.attractor_experiment"),
        "construct.stage_predicate.calls": n("construct.stage_predicate"),
        "construct.stage_predicate.self_s": s("construct.stage_predicate"),
        "construct.gamma_accept_ratio": (
            _ratio(counters.get("construct.stage_predicate.accepted", 0), predicate_calls),
            "ratio"),
        "construct.pick_targets.self_s": s("construct.pick_targets"),
        "construct.verify_counterexample.self_s": s("construct.verify_counterexample"),
        "trace.overhead_ratio": (
            _ratio(sum(r.wall for r in traced), sum(r.wall for r in untraced)), "ratio"),
    }


def largest_self_time(metrics):
    """The layer with the largest self time; the poly.* spans count as one."""
    layers = {k: v for k, (v, unit) in metrics.items() if unit == "s/cycle"}
    poly = sum(v for k, v in layers.items() if k.startswith("poly."))
    layers = {k: v for k, v in layers.items() if not k.startswith("poly.")}
    layers["poly.*"] = poly
    return max(layers, key=layers.get)


def warm_up(root):
    """Import zerodyn once, untimed, so byte-compilation is not measured."""
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import zerodyn.cli"],
        cwd=root, check=True, timeout=JOB_TIMEOUT_S,
    )


def _baseline_backend():
    try:
        with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
            return json.load(fh)["provenance"]["mpmath_backend"]
    except (OSError, ValueError, KeyError):
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result JSON here")
    args = parser.parse_args(argv)

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "zerodyn", "cli.py")):
        print(f"error: no zerodyn source under {root}/src", file=sys.stderr)
        return 2
    prov = provenance(root)
    baseline_backend = _baseline_backend()
    prov["comparable"] = baseline_backend in (None, prov["mpmath_backend"])
    warm_up(root)

    log = lambda msg: print(msg, flush=True)  # noqa: E731
    cycles = run_workload(root, args.workload, args.seed, args.seconds,
                          bool(args.trace), log=log)
    runs = [r for c in cycles for r in c]
    failed = sum(not r.ok for r in runs)
    if args.trace:
        metrics = per_layer(cycles)
        notes = {"largest_self_time": largest_self_time(metrics)}
        for part in dict.fromkeys(r.job.part for r in runs):
            in_part = [[r for r in c if r.job.part == part] for c in cycles]
            notes[f"largest_self_time[{part}]"] = largest_self_time(per_layer(in_part))
    else:
        metrics, notes = end_to_end(cycles)
    notes.update(cycles=len(cycles), failed_ratio=failed / len(runs))
    unchecked = [r for r in runs if r.golden is False]
    if any(r.golden is not None for r in runs):
        notes["golden_compared"] = f"{sum(bool(r.golden) for r in runs)}/{len(runs)} jobs"

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(cycles)} cycles, {len(runs)} jobs, closed loop with 1 client")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    print(f"  {'failed_ratio':42s} {notes['failed_ratio']:14.6g} ratio ({failed}/{len(runs)})")
    for key, value in notes.items():
        if key != "failed_ratio":
            print(f"  note {key}: {value}")
    print(f"  provenance: {json.dumps(prov)}")
    if unchecked:
        print(f"  NOT FULLY CHECKED: {len(unchecked)} jobs ran past the cycles the goldens "
              f"cover and passed the invariant checks only; record more cycles with "
              f"perfbench/record_golden.py")
    if not prov["comparable"]:
        print(f"  NOT COMPARABLE: mpmath backend {prov['mpmath_backend']} differs "
              f"from the baseline's {baseline_backend}")

    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(dict(result, workload=args.workload, seed=args.seed,
                           trace=args.trace, notes=notes, provenance=prov), fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
