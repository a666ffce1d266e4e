"""Output checks for benchmark jobs, run outside the timed region.

Two kinds of check, and a job that fails either counts as failed:

* invariants that hold for any seed (multiplicities sum to the degree,
  nonreal counts of real input are even, a PersistentNonreal trace stays
  nonzero once nonzero, the rows match the requested m-list, ...),
  judged against facts the generator computed without zerodyn;
* for the default seed, agreement with the recorded golden summaries
  (``golden/<workload>.json``), integers exactly and floats to a relative
  tolerance loose enough for a different but correct root finder.  The
  goldens cover a fixed number of cycles; run.py prints how many jobs it
  compared and a NOT FULLY CHECKED line when a run went past them.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

from workloads import limit_poly

REAL_TOL = 1e-9  # the CLI's default --real-tol
GOLDEN_REL_TOL = 1e-8


def _is_real(re_, im_):
    return abs(im_) <= REAL_TOL * (1 + math.hypot(re_, im_))


def _nonneg_finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x) and x >= 0


def answers(doc):
    """Answers in one report: its per-m or per-degree rows, else 1."""
    for key in ("trace", "samples", "records", "nonreal_counts", "nonreal_totals"):
        if key in doc:
            return len(doc[key])
    return 1


# ---------------------------------------------------------------------------
# invariants


def _check_operator(doc, ex, problems):
    if doc.get("p") != ex["p"]:
        problems.append(f"p={doc.get('p')} but the operator has p={ex['p']}")
    if Fraction(doc["alpha"]) != ex["alpha"] or Fraction(doc["beta"]) != ex["beta"]:
        problems.append("alpha/beta differ from the operator's")


def _check_roots(roots, degree, problems):
    """Roots of a real polynomial: multiplicities and nonreal parity."""
    total = sum(r["multiplicity"] for r in roots)
    if total != degree:
        problems.append(f"multiplicities sum to {total}, degree is {degree}")
    nonreal = sum(
        r["multiplicity"] for r in roots if not _is_real(float(r["re"]), float(r["im"]))
    )
    if nonreal % 2:
        problems.append(f"odd nonreal count {nonreal} for real input")


def _check_attractor(doc, ex, problems):
    _check_operator(doc, ex, problems)
    ms = [r["m"] for r in doc["records"]]
    if ms != ex["ms"]:
        problems.append(f"records for m={ms}, asked for {ex['ms']}")
    want_simple = ex["degree"] % ex["p"] in (0, 1)
    for r in doc["records"]:
        eps, star = r["containment_epsilon_needed"], r["max_scaled_star_distance"]
        if not (_nonneg_finite(eps) and _nonneg_finite(star)):
            problems.append(f"m={r['m']}: distances not finite and >= 0")
        elif r["contained"] != (eps < doc["epsilon"]):
            problems.append(f"m={r['m']}: contained flag contradicts epsilon")
        if (r["all_simple"] is not None) != want_simple:
            problems.append(f"m={r['m']}: all_simple present iff d = 0,1 mod p")


def _check_zeros(doc, ex, problems):
    if doc["source_degree"] != ex["degree"]:
        problems.append("source degree differs from the input's")
    _check_roots(doc["roots"], ex["degree"], problems)
    at_zero = [r for r in doc["roots"] if float(r["re"]) == 0 and float(r["im"]) == 0]
    mult = at_zero[0]["multiplicity"] if at_zero else 0
    if mult != ex["zero_root"]:
        problems.append(f"root 0 has multiplicity {mult}, want {ex['zero_root']}")


def _check_jensen(doc, ex, problems):
    # Jensen polynomials of E_p have only negative simple zeros.
    roots = doc["roots"]
    _check_roots(roots, ex["degree"], problems)
    for r in roots:
        re_, im_ = float(r["re"]), float(r["im"])
        if r["multiplicity"] != 1 or not _is_real(re_, im_) or not re_ < 0:
            problems.append(f"root {re_}+{im_}i is not negative, real and simple")
            break


def _check_onset(doc, ex, problems):
    trace = [(t["m"], t["nonreal"]) for t in doc["trace"]]
    if [m for m, _ in trace] != list(range(1, ex["m_max"] + 1)):
        problems.append("trace does not cover m = 1..m_max")
    counts = [n for _, n in trace]
    if any(n % 2 or not 0 <= n <= ex["degree"] for n in counts):
        problems.append(f"nonreal counts {counts} not even and within the degree")
    want_mode = "AllRealSimple" if ex["turan_sign"] < 0 else "PersistentNonreal"
    if doc["mode"] != want_mode:
        problems.append(f"mode {doc['mode']}, Turan sign says {want_mode}")
    m0 = doc["m0"]
    if want_mode == "PersistentNonreal":
        first = next((i for i, n in enumerate(counts) if n), None)
        if first is not None and not all(counts[first:]):
            problems.append("nonreal zeros left after setting in")
        tail = len(counts)
        while tail and counts[tail - 1]:
            tail -= 1
        if m0 != (tail + 1 if tail < len(counts) else None):
            problems.append(f"m0={m0} does not match the trace")
    elif m0 is not None and any(counts[m0 - 1:]):
        problems.append(f"nonreal zeros after m0={m0}")


def _check_lp(doc, ex, problems):
    counts = doc["nonreal_counts"]
    if len(counts) != ex["d_max"] or doc["d_max"] != ex["d_max"]:
        problems.append("counts do not cover d = 1..d_max")
    if any(n % 2 or not 0 <= n <= d for d, n in enumerate(counts, start=1)):
        problems.append(f"nonreal counts {counts} not even and within the degree")
    first = next((d for d, n in enumerate(counts, start=1) if n), None)
    if first is not None and not all(counts[first - 1:]):
        problems.append("a witness degree is followed by a non-witness")
    if doc["d_witness"] != first or doc["obstructed"] != (first is not None):
        problems.append("verdict does not match the counts")
    # phi(D) x^2 = x^2 + 2a x + 2b has discriminant -4 (2b - a^2).
    if ex["turan_sign"] > 0 and first != 2:
        problems.append(f"Turan > 0 forces the witness d=2, got {first}")


def _check_iterate(doc, ex, problems):
    coeffs = doc["coeffs"]
    if len(coeffs) != ex["degree"] + 1 or Fraction(coeffs[-1]) != ex["lead"]:
        problems.append("phi(0) = 1 must keep the degree and leading coefficient")
    n = doc["nonreal"]
    if n % 2 or not 0 <= n <= ex["degree"]:
        problems.append(f"nonreal count {n} not even and within the degree")


def _check_converge(doc, ex, problems):
    _check_operator(doc, ex, problems)
    ms = [s["m"] for s in doc["samples"]]
    if ms != ex["ms"]:
        problems.append(f"samples for m={ms}, asked for {ex['ms']}")
    if not all(_nonneg_finite(s["sup_norm_error"]) for s in doc["samples"]):
        problems.append("errors not finite and >= 0")
    want = limit_poly(ex["beta"], ex["p"], ex["degree"])
    if [Fraction(c) for c in doc["limit_poly"]["coeffs"]] != want:
        problems.append("limit polynomial differs from exp(beta D^p) x^d")


def _check_discrepancy(doc, ex, problems):
    if (doc["d"], doc["m"]) != (ex["d"], ex["m"]):
        problems.append("d/m differ from the request")
    if not _nonneg_finite(doc["discrepancy"]):
        problems.append("discrepancy not finite and >= 0")
    root = round(ex["m"] ** (1 / ex["p"]))
    perfect = any((root + k) ** ex["p"] == ex["m"] for k in (-1, 0, 1))
    if (doc["exact"] is not None) != perfect:
        problems.append("exact value present iff m is a perfect p-th power")


def _check_construct(doc, ex, problems, parent):
    n = ex["stages"]
    plan = doc["plan"]
    degrees, gammas = plan["degrees"], [Fraction(g) for g in plan["gammas"]]
    if len(gammas) != n or not all(g > 0 for g in gammas):
        problems.append("need one positive gamma per stage")
    if not all(a < b for a, b in zip(degrees, degrees[1:])) or len(degrees) != n:
        problems.append("witness degrees not strictly increasing")
    totals = {int(m): t for m, t in doc["nonreal_totals"].items()}
    if sorted(totals) != list(range(1, ex["m"] + 1)):
        problems.append("nonreal totals do not cover m = 1..M")
    for m, t in totals.items():
        if t % 2 or t < n - m + 1:
            problems.append(f"m={m}: {t} nonreal zeros, need an even count >= {n - m + 1}")
    want = {f"{m},{k}" for k in range(1, n + 1) for m in range(1, min(k, ex["m"]) + 1)}
    if set(doc["witnessed"]) != want:
        problems.append("a stage disk has no witnessed zero")
    if not doc["derivative_identity_ok"]:
        problems.append("derivative identity failed")
    if parent is not None:
        if parent["plan"]["degrees"] != degrees or parent["plan"]["gammas"] != plan["gammas"]:
            problems.append("re-verified plan differs from the constructed plan")
        if any(parent["nonreal_totals"].get(m) != t for m, t in doc["nonreal_totals"].items()):
            problems.append("re-verification counts differ from construct's")


_CHECKS = {
    "attractor": _check_attractor,
    "zeros": _check_zeros,
    "jensen": _check_jensen,
    "onset": _check_onset,
    "lp-test": _check_lp,
    "iterate": _check_iterate,
    "converge": _check_converge,
    "discrepancy": _check_discrepancy,
}


def check_invariants(job, doc, parent=None):
    """Problems found in one job's report; empty when it passes."""
    ex = job.expect
    kind = ex["kind"]
    if doc.get("tool") != "zerodyn" or doc.get("report") != f"{kind} v1":
        return [f"not a zerodyn {kind} v1 report"]
    problems = []
    try:
        if kind in ("construct", "verify-construct"):
            _check_construct(doc, ex, problems, parent)
        else:
            _CHECKS[kind](doc, ex, problems)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems


# ---------------------------------------------------------------------------
# golden summaries


def _root_list(roots):
    rows = [[float(r["re"]), float(r["im"]), r["multiplicity"]] for r in roots]
    return sorted(rows, key=lambda t: (round(t[0], 6), round(t[1], 6)))


def summary(kind, doc):
    """The part of a report the goldens pin down."""
    if kind == "attractor":
        return [
            [r["m"], r["contained"], r["all_simple"],
             r["containment_epsilon_needed"], r["max_scaled_star_distance"]]
            for r in doc["records"]
        ]
    if kind in ("zeros", "jensen"):
        return _root_list(doc["roots"])
    if kind == "onset":
        return [doc["mode"], doc["m0"], [t["nonreal"] for t in doc["trace"]]]
    if kind == "lp-test":
        return [doc["d_witness"], doc["nonreal_counts"]]
    if kind == "iterate":
        digest = hashlib.sha256(" ".join(doc["coeffs"]).encode()).hexdigest()
        return [doc["nonreal"], digest]
    if kind == "converge":
        return [doc["fitted_slope"], doc["exact_convergence"],
                [s["sup_norm_error"] for s in doc["samples"]]]
    if kind == "discrepancy":
        return [doc["discrepancy"], doc["exact"]]
    if kind in ("construct", "verify-construct"):
        witnessed = [
            [key, float(z[0]), float(z[1])] for key, z in sorted(doc["witnessed"].items())
        ]
        return [doc["plan"]["degrees"], doc["plan"]["gammas"],
                doc["nonreal_totals"], witnessed]
    raise ValueError(f"no summary for {kind}")


def same(a, b, path="$"):
    """First difference between two summaries, or None."""
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return None if a is b or a == b else f"{path}: {a!r} != {b!r}"
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return f"{path}: {a!r} != {b!r}"
        if abs(a - b) <= GOLDEN_REL_TOL * max(abs(a), abs(b), 1e-30):
            return None
        return f"{path}: {a!r} != {b!r}"
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            diff = same(x, y, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(a, dict) and isinstance(b, dict):
        if sorted(a) != sorted(b):
            return f"{path}: keys differ"
        for k in a:
            diff = same(a[k], b[k], f"{path}.{k}")
            if diff:
                return diff
        return None
    return None if a == b else f"{path}: {a!r} != {b!r}"
