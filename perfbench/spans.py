"""Span and counter recorder for the traced run.

The job wrapper installs it before calling ``zerodyn.cli.main``: each
layer entry point below is replaced by a wrapper that records a span
(name, start, end, parent index) and updates counters.  ``dynamics`` and
``construct`` bind some of these functions with ``from ... import``, so
the wrapper replaces the function under every name that refers to it in
any loaded zerodyn module.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

FORMATS_FUNCS = (
    "resolve_series", "resolve_poly", "dump_json", "plan_from_payload",
    "poly_payload", "operator_class_payload", "lp_result_payload",
    "rootset_payload", "onset_payload", "convergence_payload",
    "attractor_payload", "plan_payload", "counterexample_payload",
)

# (module, function, span name)
TARGETS = [("formats", f, f"formats.{f}") for f in FORMATS_FUNCS] + [
    ("series", "polya_lp_test", "series.polya_lp_test"),
    ("series", "truncated_power", "series.truncated_power"),
    ("poly", "apply_operator", "poly.apply_operator"),
    ("poly", "translate", "poly.translate"),
    ("poly", "rescale_iterate", "poly.rescale_iterate"),
    ("roots", "find_roots", "roots.find_roots"),
    ("roots", "_exact_profile", "roots.exact_profile"),
    ("roots", "count_nonreal", "roots.count_nonreal"),
    ("roots", "roots_in_disk", "roots.roots_in_disk"),
    ("dynamics", "onset_scan", "dynamics.onset_scan"),
    ("dynamics", "convergence_experiment", "dynamics.convergence_experiment"),
    ("dynamics", "attractor_experiment", "dynamics.attractor_experiment"),
    ("construct", "_stage_predicate", "construct.stage_predicate"),
    ("construct", "pick_targets", "construct.pick_targets"),
    ("construct", "verify_counterexample", "construct.verify_counterexample"),
]


def _coeff_bits(f):
    if not f.is_exact:
        return 0
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in f.coeffs),
        default=0,
    )


class Tracer:
    def __init__(self, job_id):
        self.job_id = job_id  # shared by every span of one job
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counters = Counter()
        self.root_inputs = set()

    def _before(self, name, args):
        if name == "roots.find_roots":
            f = args[0]
            self.counters["roots.find_roots.degree_sum"] += int(f.degree)
            self.root_inputs.add((f.coeffs, f.precision, args[1:]))
        elif name == "roots.exact_profile":
            deg = len(args[0].coeffs) - 1
            key = "roots.exact_profile.degree_max"
            self.counters[key] = max(self.counters[key], deg)
        elif name == "roots.roots_in_disk":
            return len(args[0].diagnostics)
        return None

    def _after(self, name, args, result, token):
        if name == "poly.apply_operator":
            key = "poly.coeff_bits_max"
            self.counters[key] = max(self.counters[key], _coeff_bits(result))
        elif name == "roots.count_nonreal":
            if result.method == "floating":
                self.counters["roots.count_nonreal.floating_fallbacks"] += 1
        elif name == "roots.roots_in_disk":
            self.counters["roots.boundary_ties"] += len(args[0].diagnostics) - token
        elif name == "construct.stage_predicate" and result:
            self.counters["construct.stage_predicate.accepted"] += 1

    def wrap(self, name, fn):
        now = time.perf_counter

        def traced(*args, **kwargs):
            token = self._before(name, args)
            record = [name, now(), 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except self.no_convergence:
                self.counters["roots.find_roots.no_convergence"] += name == "roots.find_roots"
                raise
            finally:
                record[2] = now()
                self.stack.pop()
            self._after(name, args, result, token)
            return result

        return traced

    def install(self):
        """Wrap every target under every name bound to it in zerodyn."""
        self.no_convergence = sys.modules["zerodyn.errors"].NoConvergence
        modules = [m for n, m in sys.modules.items() if n.startswith("zerodyn")]
        for mod_name, func, span in TARGETS:
            original = getattr(sys.modules[f"zerodyn.{mod_name}"], func)
            wrapper = self.wrap(span, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def dump(self):
        counters = dict(self.counters)
        counters["roots.find_roots.distinct_inputs"] = len(self.root_inputs)
        return {"job": self.job_id, "spans": self.spans, "counters": counters}


def self_times(spans):
    """Per span name: (calls, self seconds) with child spans subtracted."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - child[i])
    return out
