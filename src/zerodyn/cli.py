"""Command-line frontend.

Subcommands mirror the library: classify, lp-test, apply, iterate,
zeros, onset, converge, discrepancy, attractor, limit-poly, hermite,
jensen, construct, verify-construct.  Each subcommand declares only the
settings it reads (``_SETTINGS``; defaults from ``scalars.DEFAULT_*``)
and argparse rejects any other with exit 2.  ``verify-construct`` reads
the stage count and root precision from its plan, so it takes no
``--precision-bits``; it accepts ``--d-cap``, which it does not read,
because saved command lines pass it.  JSON is the archival output:
its ``config`` block echoes the declared settings.  CSV emits one row per
m or per root for plotting, for the four reports with a CSV schema.
Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from .errors import (
    GammaSearchExhausted,
    NoConvergence,
    VerificationFailed,
    WitnessNotFound,
    ZerodynError,
)
from .scalars import (
    DEFAULT_D_CAP,
    DEFAULT_GAMMA0,
    DEFAULT_M_MAX,
    DEFAULT_PRECISION_BITS,
    MIN_PRECISION_BITS,
    _lazy_import,
    exact_nth_root,
    parse_fraction,
    to_double,
)

# Bound lazily, not by an import statement (which would read ``__spec__``
# and so execute the module): a job executes the modules its subcommand uses.
construct_mod = _lazy_import("zerodyn.construct")
dynamics = _lazy_import("zerodyn.dynamics")
exact = _lazy_import("zerodyn.exact")
formats = _lazy_import("zerodyn.formats")
limits = _lazy_import("zerodyn.limits")
poly = _lazy_import("zerodyn.poly")
roots = _lazy_import("zerodyn.roots")
series = _lazy_import("zerodyn.series")

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
_heap_frozen = False  # set by main's first call in the process


def _int_at_least(low):
    """An argparse ``type``: an int >= ``low``; anything else exits 2."""

    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its error message
    return parse


# Each setting, declared only by the subcommands that read it (see ``cmd``),
# and --d-cap by verify-construct too, whose saved command lines still pass it.
_SETTINGS = {
    "precision_bits": ("--precision-bits", dict(
        type=_int_at_least(MIN_PRECISION_BITS), default=DEFAULT_PRECISION_BITS,
        help="binary precision of the certified roots and the m^(1/p) "
        "roundings (default %(default)s)",
    )),
    "m_max": ("--m-max", dict(
        type=_int_at_least(1), default=DEFAULT_M_MAX,
        help="iterates the onset scan sweeps (default %(default)s)",
    )),
    "d_cap": ("--d-cap", dict(
        type=_int_at_least(1), default=DEFAULT_D_CAP,
        help="degree cap of the witness search (default %(default)s); "
        "verify-construct accepts it and does not read it",
    )),
    "format": ("--format", dict(choices=("json", "csv"), default="json")),
    "output": ("--output", dict(help="write the report here instead of stdout")),
}


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: its ``add_argument`` calls are stored and made
    on first use, so a run builds only the subcommand it names."""

    def add_argument(self, *args, **kwargs):
        vars(self).setdefault("_pending", []).append((args, kwargs))

    def parse_known_args(self, args=None, namespace=None):
        for a, kw in vars(self).pop("_pending", ()):
            super().add_argument(*a, **kw)
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser: each subcommand declares the settings it reads."""
    parser = argparse.ArgumentParser(
        prog="zerodyn",
        description=(
            "Iterates of power-series differential operators on polynomials: "
            "classification, zero counting, rescaled limits, counterexample "
            "products."
        ),
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_SubcommandParser
    )

    def cmd(name, help_text, *settings):
        p = sub.add_parser(name, help=help_text)
        for setting in (*settings, "output"):
            flag, kwargs = _SETTINGS[setting]
            p.add_argument(flag, **kwargs)
        return p

    p = cmd("classify", "classify an operator series")
    p.add_argument("--series", required=True)

    p = cmd("lp-test", "scan monomial images for nonreal zeros")
    p.add_argument("--series", required=True)
    p.add_argument("--d-max", type=int, required=True)

    p = cmd("apply", "apply the operator once")
    p.add_argument("--series", required=True)
    p.add_argument("--poly", required=True)

    p = cmd("iterate", "apply the operator m times")
    p.add_argument("--series", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument(
        "--op-count",
        choices=("nonreal",),
        help="also count nonreal zeros of the result",
    )

    p = cmd("zeros", "certified roots, with relative residuals", "precision_bits", "format")
    p.add_argument("--poly", required=True)

    p = cmd("onset", "scan for the terminal zero behavior", "m_max", "format")
    p.add_argument("--series", required=True)
    p.add_argument("--poly", required=True)

    p = cmd(
        "converge", "sup-norm error of rescaled iterates vs the limit",
        "precision_bits", "format",
    )
    p.add_argument("--series", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--m-list", required=True, help="e.g. 1:100, 10:1000:10, or 1,2,5")

    p = cmd("discrepancy", "operator-norm surrogate at order d", "precision_bits")
    p.add_argument("--series", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = cmd(
        "attractor", "pullback containment of iterate zeros", "precision_bits", "format"
    )
    p.add_argument("--series", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--m-list", required=True)
    p.add_argument("--epsilon", type=float, required=True)

    p = cmd("limit-poly", "closed-form limit exp(beta D^p) x^d")
    p.add_argument("--beta", required=True, help="rational like -1 or 3/2")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = cmd("hermite", "Hermite polynomial H_d")
    p.add_argument("--d", type=int, required=True)

    p = cmd("jensen", "Jensen polynomial of the Mittag-Leffler series", "precision_bits")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--roots", action="store_true", help="also report its roots")

    p = cmd(
        "construct", "build and verify a counterexample product", "precision_bits", "d_cap"
    )
    p.add_argument("--series", required=True)
    p.add_argument("--stages", type=_int_at_least(1), required=True, help="number of stages N")
    p.add_argument("--m", type=int, help="verify iterates up to m (default N)")
    p.add_argument("--gamma0", default=str(DEFAULT_GAMMA0), help="initial stage factor (rational)")
    p.add_argument("--plan-out", help="also save the stage plan JSON here")

    p = cmd("verify-construct", "re-verify a saved stage plan from scratch", "d_cap")
    p.add_argument("--series", required=True)
    p.add_argument("--plan", required=True, help="plan JSON produced by construct")
    p.add_argument("--m", type=int, help="verify iterates up to m (default N)")

    return parser


def _parse_m_list(spec: str):
    out = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" in chunk:
            parts = [int(x) for x in chunk.split(":")]
            if len(parts) == 2:
                start, stop, step = parts[0], parts[1], 1
            elif len(parts) == 3:
                start, stop, step = parts
            else:
                raise ValueError(f"bad m-list range {chunk!r}")
            if step < 1:
                raise ValueError(f"m-list step must be >= 1, got {step} in {chunk!r}")
            if stop < start:
                raise ValueError(f"m-list range {chunk!r} runs backwards")
            out.extend(range(start, stop + 1, step))
        else:
            out.append(int(chunk))
    if not out:
        raise ValueError("empty m-list")
    return out


def _emit(args, payload) -> None:
    kind = args.command
    if getattr(args, "format", "json") == "csv":
        text = formats.csv_text(kind, payload)
    else:
        # the options this subcommand declares, in ``_SETTINGS`` order
        config = {name: getattr(args, name) for name in _SETTINGS if hasattr(args, name)}
        doc = {"tool": "zerodyn", "report": f"{kind} v1", "config": config}
        doc.update(payload)
        text = formats.dump_json(doc)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _payload(args):
    """The report the subcommand ``args.command`` asks for, as its JSON payload."""
    cmd = args.command
    phi = formats.resolve_series(args.series) if hasattr(args, "series") else None

    if cmd == "classify":
        return formats.operator_class_payload(series.classify(phi))

    if cmd == "lp-test":
        return formats.lp_result_payload(series.polya_lp_test(phi, args.d_max))

    if cmd in ("apply", "iterate"):
        f = formats.resolve_poly(args.poly)
        g = poly.iterate_operator(phi, f, 1 if cmd == "apply" else args.m)
        payload = {"poly": str(g), **formats.poly_payload(g)}
        if cmd == "iterate" and args.op_count == "nonreal":
            payload["nonreal"] = exact.count_nonreal(g).nonreal_count
        return payload

    if cmd == "zeros":
        f = formats.resolve_poly(args.poly)
        return formats.rootset_payload(roots.find_roots(f, args.precision_bits))

    if cmd in ("onset", "converge", "attractor"):
        f = formats.resolve_poly(args.poly)
        if cmd == "onset":
            rep = dynamics.onset_scan(phi, f, args.m_max)
            return formats.onset_payload(rep)
        ms = _parse_m_list(args.m_list)
        if cmd == "converge":
            rep = dynamics.convergence_experiment(phi, f, ms, args.precision_bits)
            return formats.convergence_payload(rep)
        rep = dynamics.attractor_experiment(phi, f, ms, args.epsilon, args.precision_bits)
        return formats.attractor_payload(rep)

    if cmd == "discrepancy":
        cls = series.classify(phi)
        value = dynamics.operator_discrepancy(cls, args.d, args.m, args.precision_bits)
        text = str(value) if exact_nth_root(args.m, cls.p) is not None else None
        double = to_double(value, "the discrepancy")
        return {"d": args.d, "m": args.m, "discrepancy": double, "exact": text}

    if cmd == "limit-poly":
        g = limits.exp_dp_monomial(parse_fraction(args.beta), args.p, args.d)
        return formats.poly_payload(g)

    if cmd == "hermite":
        return formats.poly_payload(limits.hermite(args.d))

    if cmd == "jensen":
        g = limits.jensen_ml(args.p, args.q)
        payload = formats.poly_payload(g)
        if args.roots:
            rs = roots.find_roots(g, args.precision_bits)
            payload["roots"] = formats.rootset_payload(rs)["roots"]
        return payload

    if cmd in ("construct", "verify-construct"):
        if cmd == "construct":
            if args.m is not None and not 1 <= args.m <= args.stages:
                raise ValueError(f"need 1 <= M <= N, got M = {args.m}, N = {args.stages}")
            plan = construct_mod.build_plan(
                phi,
                args.stages,
                d_cap=args.d_cap,
                gamma0=parse_fraction(args.gamma0),
                precision_bits=args.precision_bits,
            )
        else:
            with open(args.plan, "r", encoding="utf-8") as fh:
                plan = formats.plan_from_payload(json.load(fh))
        report = construct_mod.verify_counterexample(phi, plan, args.m)
        if cmd == "construct" and args.plan_out:
            with open(args.plan_out, "w", encoding="utf-8") as fh:
                fh.write(formats.dump_json(formats.plan_payload(plan)))
        return formats.counterexample_payload(report)

    raise ValueError(f"unknown command {cmd!r}")


def main(argv=None) -> int:
    """Run the CLI on ``argv`` (default ``sys.argv[1:]``); the exit code.

    On its first call in a process it first moves every object alive at
    entry (modules, classes, the parser machinery) to the garbage
    collector's permanent generation (``gc.freeze()``), so neither the
    run's full collections nor those at interpreter exit traverse them
    again.  The effect is process-wide: an in-process caller's objects
    alive at that first call are never examined by the cyclic collector
    afterwards (reference counting still frees them), and later calls
    freeze nothing more.
    """
    global _heap_frozen
    if not _heap_frozen:
        gc.freeze()
        _heap_frozen = True
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize exit 0 for --help
        return int(exc.code or 0)
    try:
        _emit(args, _payload(args))
        return EXIT_OK
    except (VerificationFailed, WitnessNotFound, GammaSearchExhausted, NoConvergence) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (ZerodynError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
