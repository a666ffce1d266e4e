"""Command-line frontend.

Subcommands mirror the library: classify, lp-test, apply, iterate,
zeros, onset, converge, discrepancy, attractor, limit-poly, hermite,
jensen, construct, verify-construct.  JSON is the archival output (it
embeds the run configuration); CSV emits one row per m or per root for
plotting.  Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import construct as construct_mod
from . import dynamics, formats, limits, poly, roots, series
from .errors import (
    GammaSearchExhausted,
    NoConvergence,
    VerificationFailed,
    WitnessNotFound,
    ZerodynError,
)
from .records import Record
from .scalars import DEFAULT_PRECISION_BITS, exact_nth_root, parse_fraction

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2


class RunConfig(Record):
    precision_bits: int
    m_max: int
    d_cap: int
    out_format: str
    output: str | None

    def validate(self):
        if self.precision_bits < 64:
            raise ValueError("precision-bits must be >= 64")
        if self.m_max < 1 or self.d_cap < 1:
            raise ValueError("m-max and d-cap must be >= 1")
        if self.out_format not in ("json", "csv"):
            raise ValueError("format must be json or csv")


def _env_default(name, cast, fallback):
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r} is not a valid {cast.__name__}") from None


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
    """The CLI parser; a malformed ZERODYN_* default is a ValueError here."""
    int_options = [  # (flag, default, help) of every subcommand
        ("--precision-bits", _env_default("ZERODYN_PRECISION_BITS", int, DEFAULT_PRECISION_BITS),
         "binary working precision for floating paths"),
        ("--m-max", _env_default("ZERODYN_M_MAX", int, dynamics.DEFAULT_M_MAX),
         "iterate sweep bound for onset scans"),
        ("--d-cap", _env_default("ZERODYN_D_CAP", int, construct_mod.DEFAULT_D_CAP),
         "degree cap for witness searches"),
    ]
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

    def cmd(name, help_text):
        p = sub.add_parser(name, help=help_text)
        for flag, default, text in int_options:
            p.add_argument(flag, type=int, default=default, help=text + " (default %(default)s)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", help="write the report here instead of stdout")
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

    p = cmd("zeros", "find all roots with residual certificates")
    p.add_argument("--poly", required=True)

    p = cmd("onset", "scan for the terminal zero behavior")
    p.add_argument("--series", required=True)
    p.add_argument("--poly", required=True)

    p = cmd("converge", "sup-norm error of rescaled iterates vs the limit")
    p.add_argument("--series", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--m-list", required=True, help="e.g. 1:100, 10:1000:10, or 1,2,5")

    p = cmd("discrepancy", "operator-norm surrogate at order d")
    p.add_argument("--series", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = cmd("attractor", "pullback containment of iterate zeros")
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

    p = cmd("jensen", "Jensen polynomial of the Mittag-Leffler series")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--roots", action="store_true", help="also report its roots")

    p = cmd("construct", "build and verify a counterexample product")
    p.add_argument("--series", required=True)
    p.add_argument("--stages", type=int, required=True, help="number of stages N")
    p.add_argument("--m", type=int, help="verify iterates up to m (default N)")
    p.add_argument("--gamma0", default="1", help="initial stage factor (rational)")
    p.add_argument("--plan-out", help="also save the stage plan JSON here")

    p = cmd("verify-construct", "re-verify a saved stage plan from scratch")
    p.add_argument("--series", required=True)
    p.add_argument("--plan", required=True, help="plan JSON produced by construct")
    p.add_argument("--m", type=int, help="verify iterates up to m (default N)")

    return parser


def _config_from(args) -> RunConfig:
    cfg = RunConfig(
        precision_bits=args.precision_bits,
        m_max=args.m_max,
        d_cap=args.d_cap,
        out_format=args.format,
        output=args.output,
    )
    cfg.validate()
    if cfg.out_format == "csv":
        formats.csv_table(args.command)  # before any work, not after it
    return cfg


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
            out.extend(range(start, stop + 1, step))
        else:
            out.append(int(chunk))
    if not out:
        raise ValueError("empty m-list")
    return out


def _emit(cfg: RunConfig, kind: str, payload) -> None:
    if cfg.out_format == "csv":
        text = formats.csv_text(kind, payload)
    else:
        doc = {"tool": "zerodyn", "report": f"{kind} v1", "config": cfg._asdict()}
        doc.update(payload)
        text = formats.dump_json(doc)
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _payload(args, cfg: RunConfig):
    """The report the subcommand ``args.command`` asks for, as its JSON payload."""
    cmd = args.command

    if cmd == "classify":
        phi = formats.resolve_series(args.series)
        return formats.operator_class_payload(series.classify(phi))

    if cmd == "lp-test":
        phi = formats.resolve_series(args.series, min_order=args.d_max)
        return formats.lp_result_payload(series.polya_lp_test(phi, args.d_max))

    if cmd in ("apply", "iterate"):
        f = formats.resolve_poly(args.poly)
        phi = formats.resolve_series(args.series, min_order=max(0, f.degree))
        g = poly.iterate_operator(phi, f, 1 if cmd == "apply" else args.m)
        payload = {"poly": str(g), **formats.poly_payload(g)}
        if cmd == "iterate" and args.op_count == "nonreal":
            payload["nonreal"] = roots.count_nonreal(g).nonreal_count
        return payload

    if cmd == "zeros":
        f = formats.resolve_poly(args.poly)
        return formats.rootset_payload(roots.find_roots(f, cfg.precision_bits))

    if cmd in ("onset", "converge", "attractor"):
        f = formats.resolve_poly(args.poly)
        phi = formats.resolve_series(args.series, min_order=max(2, f.degree))
        if cmd == "onset":
            rep = dynamics.onset_scan(phi, f, cfg.m_max)
            return formats.onset_payload(rep)
        ms = _parse_m_list(args.m_list)
        if cmd == "converge":
            rep = dynamics.convergence_experiment(phi, f, ms, cfg.precision_bits)
            return formats.convergence_payload(rep)
        rep = dynamics.attractor_experiment(phi, f, ms, args.epsilon, cfg.precision_bits)
        return formats.attractor_payload(rep)

    if cmd == "discrepancy":
        phi = formats.resolve_series(args.series, min_order=args.d)
        cls = series.classify(phi)
        value = dynamics.operator_discrepancy(cls, phi, args.d, args.m, cfg.precision_bits)
        exact = str(value) if exact_nth_root(args.m, cls.p) is not None else None
        return {"d": args.d, "m": args.m, "discrepancy": float(value), "exact": exact}

    if cmd == "limit-poly":
        g = limits.exp_dp_monomial(parse_fraction(args.beta), args.p, args.d)
        return formats.poly_payload(g)

    if cmd == "hermite":
        return formats.poly_payload(limits.hermite(args.d))

    if cmd == "jensen":
        g = limits.jensen_ml(args.p, args.q)
        payload = formats.poly_payload(g)
        if args.roots:
            rs = roots.find_roots(g, cfg.precision_bits)
            payload["roots"] = formats.rootset_payload(rs)["roots"]
        return payload

    if cmd in ("construct", "verify-construct"):
        phi = formats.resolve_series(args.series, min_order=cfg.d_cap)
        if cmd == "construct":
            if args.m is not None and not 1 <= args.m <= args.stages:
                raise ValueError(f"need 1 <= M <= N, got M = {args.m}, N = {args.stages}")
            plan = construct_mod.build_plan(
                phi,
                args.stages,
                d_cap=cfg.d_cap,
                gamma0=parse_fraction(args.gamma0),
                precision_bits=cfg.precision_bits,
            )
        else:
            with open(args.plan, "r", encoding="utf-8") as fh:
                plan = formats.plan_from_payload(json.load(fh))
        n = plan.stages_fixed
        m = args.m if args.m is not None else n
        report = construct_mod.verify_counterexample(phi, plan, n, m, cfg.precision_bits)
        if cmd == "construct" and args.plan_out:
            with open(args.plan_out, "w", encoding="utf-8") as fh:
                fh.write(formats.dump_json(formats.plan_payload(plan)))
        return formats.counterexample_payload(report)

    raise ValueError(f"unknown command {cmd!r}")


def _run(args) -> int:
    cfg = _config_from(args)
    _emit(cfg, args.command, _payload(args, cfg))
    return EXIT_OK


def main(argv=None) -> int:
    try:
        parser = build_parser()  # reads the ZERODYN_* defaults
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize exit 0 for --help
        return int(exc.code or 0)
    try:
        return _run(args)
    except (VerificationFailed, WitnessNotFound, GammaSearchExhausted, NoConvergence) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (ZerodynError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
