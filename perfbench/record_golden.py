"""Record the golden summaries for the default seed, cross-checked once.

    python3 perfbench/record_golden.py [--cycles 40] [--workload NAME ...]

Run from the root of a checkout.  For each workload this runs --cycles
cycles of the default seed (a 35 s run reaches 5 to 8 at the seed commit,
so the goldens still cover every cycle of a run that is 5 times faster),
checks every output's invariants, and cross-checks the outputs against
oracles that share no code with zerodyn:

* sympy ``sqf_list``/``count_roots`` nonreal counts of iterates (onset,
  lp-test, iterate, construct), on iterates of degree <= 24, since sympy
  needs minutes for one of degree 48;
* mpmath ``polyroots`` at raised precision for the roots of degree <= 20
  (zeros, jensen) and the attractor's containment distances (degree <= 8);
* the criterion-5 identity phi(D)^m f = (phi^m mod x^(d+1))(D) f, which
  gives every iterate the oracles use and the iterate jobs' coefficients;
* exact rescaled iterates for converge at perfect p-th powers m.

Writes golden/<workload>.json.  Needs sympy, which zerodyn does not.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time
from collections import Counter
from fractions import Fraction

import mpmath
import sympy

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, cycle_jobs, limit_poly  # noqa: E402

SYMPY_MAX_DEGREE = 24
ROOTS_MAX_DEGREE = 20
ATTRACTOR_MAX_DEGREE = 8
ROOT_REL_TOL = 1e-15


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return [Fraction(ln) for ln in fh.read().split("\n")[1:] if ln.strip()]


def _arg(job, flag):
    return job.argv[job.argv.index(flag) + 1]


# ---------------------------------------------------------------------------
# exact oracles on ascending Fraction lists


def _derivative(f):
    return [k * c for k, c in enumerate(f)][1:]


def apply(phi, f):
    """phi(D) f = sum_n phi_n f^(n)."""
    out = [Fraction(0)] * len(f)
    der = list(f)
    for n in range(len(f)):
        if n < len(phi) and phi[n]:
            for k, c in enumerate(der):
                out[k] += phi[n] * c
        der = _derivative(der)
    return out


def truncated_power(phi, m, order):
    acc = [Fraction(1)] + [Fraction(0)] * order
    base = (list(phi) + [Fraction(0)] * (order + 1))[: order + 1]
    for _ in range(m):
        acc = [sum(acc[i] * base[n - i] for i in range(n + 1)) for n in range(order + 1)]
    return acc


def iterate(phi, f, m):
    return apply(truncated_power(phi, m, len(f) - 1), f)


def sympy_nonreal(f):
    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(f)), x, domain="QQ")
    real = sum(k * factor.count_roots() for factor, k in poly.sqf_list()[1])
    return poly.degree() - real


def mp_roots(f, dps=60):
    """All roots of f (ascending coefficients), zero roots counted apart."""
    r = next(k for k, c in enumerate(f) if c)
    with mpmath.workdps(dps):
        body = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(f[r:])]
        found = mpmath.polyroots(body, maxsteps=400, extraprec=4 * dps) if len(body) > 1 else []
    return [mpmath.mpc(0)] * r + [mpmath.mpc(z) for z in found]


def _match_roots(doc_roots, oracle, problems, what):
    with mpmath.workdps(60):
        pending = list(oracle)
        for r in doc_roots:
            z = mpmath.mpc(mpmath.mpf(r["re"]), mpmath.mpf(r["im"]))
            for _ in range(r["multiplicity"]):
                best = min(pending, key=lambda w: abs(w - z))
                if abs(best - z) > ROOT_REL_TOL * (1 + abs(z)):
                    problems.append(f"{what}: root {z} not found by polyroots")
                    return
                pending.remove(best)


def _rescaled(g, m, root, alpha, d):
    """m^(-d/p) g(root x - m alpha) for root = m^(1/p) an integer."""
    shift = -m * alpha
    out = [Fraction(0)] * len(g)
    for k, c in enumerate(g):  # c (root x + shift)^k
        for j in range(k + 1):
            out[j] += c * math.comb(k, j) * Fraction(root) ** j * shift ** (k - j)
    return [c / Fraction(root) ** d for c in out]


# ---------------------------------------------------------------------------
# per-kind cross-checks; each returns the number of oracle comparisons


def _oracle_onset(job, doc, problems):
    if job.expect["degree"] > SYMPY_MAX_DEGREE:
        return 0
    phi, f = _read(_arg(job, "--series")), _read(_arg(job, "--poly"))
    counts = [t["nonreal"] for t in doc["trace"]]
    for m in range(1, min(len(counts), 3) + 1):
        if sympy_nonreal(iterate(phi, f, m)) != counts[m - 1]:
            problems.append(f"onset m={m}: sympy disagrees")
    return min(len(counts), 3)


def _oracle_lp(job, doc, problems):
    phi = _read(_arg(job, "--series"))
    n = min(len(doc["nonreal_counts"]), 12)
    for d in range(1, n + 1):
        image = apply(phi, [Fraction(0)] * d + [Fraction(1)])
        if sympy_nonreal(image) != doc["nonreal_counts"][d - 1]:
            problems.append(f"lp-test d={d}: sympy disagrees")
    return n


def _oracle_iterate(job, doc, problems):
    phi, f = _read(_arg(job, "--series")), _read(_arg(job, "--poly"))
    g = iterate(phi, f, job.expect["m"])
    if [Fraction(c) for c in doc["coeffs"]] != g:
        problems.append("iterate differs from the truncated-power oracle")
    if job.expect["degree"] <= SYMPY_MAX_DEGREE and sympy_nonreal(g) != doc["nonreal"]:
        problems.append("iterate nonreal count: sympy disagrees")
    return 1


def _oracle_roots(job, doc, problems):
    if job.expect["degree"] > ROOTS_MAX_DEGREE:
        return 0
    if job.expect["kind"] == "zeros":
        f = _read(_arg(job, "--poly"))
    else:
        p, q = job.expect["p"], job.expect["degree"]
        f = [Fraction(math.factorial(q), math.factorial(q - k) * math.factorial(p * k))
             for k in range(q + 1)]
    _match_roots(doc["roots"], mp_roots(f), problems, job.expect["kind"])
    return 1


def _oracle_attractor(job, doc, problems):
    ex = job.expect
    d, p = ex["degree"], ex["p"]
    if d > ATTRACTOR_MAX_DEGREE:
        return 0
    phi, f = _read(_arg(job, "--series")), _read(_arg(job, "--poly"))
    checked = 0
    with mpmath.workdps(60):
        gamma = mpmath.root(-mpmath.mpf(ex["beta"].numerator) / ex["beta"].denominator, p)
        limit_pts = [gamma * z for z in mp_roots(limit_poly(Fraction(-1), p, d))]
        alpha = mpmath.mpf(ex["alpha"].numerator) / ex["alpha"].denominator
        for rec in doc["records"]:
            m = rec["m"]
            if m > 10:
                continue
            scale = mpmath.mpf(m) ** (mpmath.mpf(1) / p)
            eps = max(
                min(abs((z + m * alpha) / scale - q) for q in limit_pts)
                for z in mp_roots(iterate(phi, f, m))
            )
            want = rec["containment_epsilon_needed"]
            if abs(eps - want) > 1e-9 * max(1, abs(eps)):
                problems.append(f"attractor m={m}: polyroots gives epsilon {eps}")
            checked += 1
    return checked


def _oracle_converge(job, doc, problems):
    ex = job.expect
    phi, f = _read(_arg(job, "--series")), _read(_arg(job, "--poly"))
    limit = limit_poly(ex["beta"], ex["p"], ex["degree"])
    checked = 0
    for sample in doc["samples"]:
        m = sample["m"]
        root = round(m ** (1 / ex["p"]))
        if root ** ex["p"] != m:
            continue
        h = _rescaled(iterate(phi, f, m), m, root, ex["alpha"], ex["degree"])
        err = max(abs(a - b) for a, b in zip(h, limit))
        if abs(float(err) - sample["sup_norm_error"]) > 1e-12 * max(1, float(err)):
            problems.append(f"converge m={m}: exact oracle gives {float(err)}")
        checked += 1
    return checked


def _oracle_construct(job, doc, problems):
    plan = doc["plan"]
    if sum(plan["degrees"]) > SYMPY_MAX_DEGREE:
        return 0
    phi = _read(_arg(job, "--series"))
    product = [Fraction(1)]
    for d, g in zip(plan["degrees"], plan["gammas"]):
        for _ in range(d):
            product = [a + Fraction(g) * b for a, b in zip(product + [0], [0] + product)]
    g = product
    for m in range(1, len(doc["nonreal_totals"]) + 1):
        g = apply(phi, g)
        if sympy_nonreal(g) != doc["nonreal_totals"][str(m)]:
            problems.append(f"construct m={m}: sympy disagrees")
    return len(doc["nonreal_totals"])


ORACLES = {
    "onset": _oracle_onset,
    "lp-test": _oracle_lp,
    "iterate": _oracle_iterate,
    "zeros": _oracle_roots,
    "jensen": _oracle_roots,
    "attractor": _oracle_attractor,
    "converge": _oracle_converge,
    "construct": _oracle_construct,
}


def record(root, workload, cycles):
    workdir = os.path.join(root, ".bench_work", f"golden-{workload}")
    os.makedirs(workdir, exist_ok=True)
    jobs, checks = {}, Counter()
    failures = []
    for c in range(cycles):
        docs = {}
        for job in cycle_jobs(workload, run.DEFAULT_SEED, c, workdir):
            r = run.run_job(root, job, workdir, f"c{c}-{job.slot}", False, docs.get(job.after))
            docs[job.slot] = r.doc
            kind = job.expect["kind"]
            if r.ok and kind in ORACLES:
                checks[kind] += ORACLES[kind](job, r.doc, r.problems)
            if not r.ok:
                failures.append(f"c{c}/{job.slot}: {'; '.join(r.problems)}")
                continue
            jobs[f"c{c}/{job.slot}"] = check.summary(kind, r.doc)
    shutil.rmtree(workdir, ignore_errors=True)
    return {"seed": run.DEFAULT_SEED, "cycles": cycles, "oracle_checks": dict(checks),
            "jobs": jobs}, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cycles", type=int, default=40)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    root = os.path.dirname(HERE)
    os.makedirs(os.path.join(HERE, "golden"), exist_ok=True)
    status = 0
    for workload in args.workload or sorted(WORKLOADS):
        t0 = time.monotonic()
        golden, failures = record(root, workload, args.cycles)
        for msg in failures:
            print(f"FAILED {workload} {msg}")
        if failures:
            status = 1
            continue
        with open(os.path.join(HERE, "golden", f"{workload}.json"), "w") as fh:
            json.dump(golden, fh, indent=0)
            fh.write("\n")
        print(f"{workload}: {golden['cycles']} cycles, {len(golden['jobs'])} jobs, "
              f"oracle checks {golden['oracle_checks']}, "
              f"{time.monotonic() - t0:.0f} s")
    return status


if __name__ == "__main__":
    sys.exit(main())
