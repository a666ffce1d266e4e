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
from fractions import Fraction

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
from .scalars import DEFAULT_PRECISION_BITS, parse_fraction

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zerodyn",
        description=(
            "Iterates of power-series differential operators on polynomials: "
            "classification, zero counting, rescaled limits, counterexample "
            "products."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--precision-bits",
        type=int,
        default=_env_default("ZERODYN_PRECISION_BITS", int, DEFAULT_PRECISION_BITS),
        help="binary working precision for floating paths (default %(default)s)",
    )
    common.add_argument(
        "--m-max",
        type=int,
        default=_env_default("ZERODYN_M_MAX", int, dynamics.DEFAULT_M_MAX),
        help="iterate sweep bound for onset scans (default %(default)s)",
    )
    common.add_argument(
        "--d-cap",
        type=int,
        default=_env_default("ZERODYN_D_CAP", int, construct_mod.DEFAULT_D_CAP),
        help="degree cap for witness searches (default %(default)s)",
    )
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--output", help="write the report here instead of stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, help_text, **kwargs):
        return sub.add_parser(name, parents=[common], help=help_text, **kwargs)

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


def _run(args) -> int:
    cfg = _config_from(args)
    cmd = args.command

    if cmd == "classify":
        phi = formats.resolve_series(args.series)
        cls = series.classify(phi)
        _emit(cfg, "classify", formats.operator_class_payload(cls))
        return EXIT_OK

    if cmd == "lp-test":
        phi = formats.resolve_series(args.series, min_order=args.d_max)
        res = series.polya_lp_test(phi, args.d_max)
        _emit(cfg, "lp-test", formats.lp_result_payload(res))
        return EXIT_OK

    if cmd in ("apply", "iterate"):
        f = formats.resolve_poly(args.poly)
        phi = formats.resolve_series(args.series, min_order=max(0, f.degree))
        m = 1 if cmd == "apply" else args.m
        g = poly.iterate_operator(phi, f, m)
        payload = {"poly": formats.format_poly_inline_exact(g)}
        payload.update(formats.poly_payload(g))
        if cmd == "iterate" and args.op_count == "nonreal":
            zc = roots.count_nonreal(g, cfg.precision_bits)
            payload["nonreal"] = zc.nonreal_count
        _emit(cfg, cmd, payload)
        return EXIT_OK

    if cmd == "zeros":
        f = formats.resolve_poly(args.poly)
        rs = roots.find_roots(f, cfg.precision_bits)
        _emit(cfg, "zeros", formats.rootset_payload(rs))
        return EXIT_OK

    if cmd == "onset":
        f = formats.resolve_poly(args.poly)
        phi = formats.resolve_series(args.series, min_order=max(2, f.degree))
        rep = dynamics.onset_scan(phi, f, cfg.m_max, cfg.precision_bits)
        _emit(cfg, "onset", formats.onset_payload(rep))
        return EXIT_OK

    if cmd == "converge":
        f = formats.resolve_poly(args.poly)
        phi = formats.resolve_series(args.series, min_order=max(2, f.degree))
        rep = dynamics.convergence_experiment(
            phi, f, _parse_m_list(args.m_list), cfg.precision_bits
        )
        _emit(cfg, "converge", formats.convergence_payload(rep))
        return EXIT_OK

    if cmd == "discrepancy":
        phi = formats.resolve_series(args.series, min_order=args.d)
        cls = series.classify(phi)
        value = dynamics.operator_discrepancy(
            cls, phi, args.d, args.m, cfg.precision_bits
        )
        _emit(
            cfg,
            "discrepancy",
            {
                "d": args.d,
                "m": args.m,
                "discrepancy": float(value),
                "exact": str(value) if isinstance(value, Fraction) else None,
            },
        )
        return EXIT_OK

    if cmd == "attractor":
        f = formats.resolve_poly(args.poly)
        phi = formats.resolve_series(args.series, min_order=max(2, f.degree))
        rep = dynamics.attractor_experiment(
            phi,
            f,
            _parse_m_list(args.m_list),
            args.epsilon,
            cfg.precision_bits,
        )
        _emit(cfg, "attractor", formats.attractor_payload(rep))
        return EXIT_OK

    if cmd == "limit-poly":
        g = limits.exp_dp_monomial(parse_fraction(args.beta), args.p, args.d)
        _emit(cfg, "limit-poly", formats.poly_payload(g))
        return EXIT_OK

    if cmd == "hermite":
        _emit(cfg, "hermite", formats.poly_payload(limits.hermite(args.d)))
        return EXIT_OK

    if cmd == "jensen":
        g = limits.jensen_ml(args.p, args.q)
        payload = formats.poly_payload(g)
        if args.roots:
            rs = roots.find_roots(g, cfg.precision_bits)
            payload["roots"] = formats.rootset_payload(rs)["roots"]
        _emit(cfg, "jensen", payload)
        return EXIT_OK

    if cmd == "construct":
        phi = formats.resolve_series(args.series, min_order=cfg.d_cap)
        n = args.stages
        m = args.m if args.m is not None else n
        plan = construct_mod.build_plan(
            phi,
            n,
            d_cap=cfg.d_cap,
            gamma0=parse_fraction(args.gamma0),
            precision_bits=cfg.precision_bits,
        )
        report = construct_mod.verify_counterexample(
            phi, plan, n, m, cfg.precision_bits
        )
        if args.plan_out:
            with open(args.plan_out, "w", encoding="utf-8") as fh:
                fh.write(formats.dump_json(formats.plan_payload(plan)))
        _emit(cfg, "construct", formats.counterexample_payload(report))
        return EXIT_OK

    if cmd == "verify-construct":
        phi = formats.resolve_series(args.series, min_order=cfg.d_cap)
        with open(args.plan, "r", encoding="utf-8") as fh:
            plan = formats.plan_from_payload(json.load(fh))
        n = plan.stages_fixed
        m = args.m if args.m is not None else n
        report = construct_mod.verify_counterexample(
            phi, plan, n, m, cfg.precision_bits
        )
        _emit(cfg, "verify-construct", formats.counterexample_payload(report))
        return EXIT_OK

    raise ValueError(f"unknown command {cmd!r}")


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
