"""Text and JSON/CSV formats: parsing, serialization, presets.

File formats are versioned by a header on their first non-blank line,
which reads exactly ``# zerodyn <kind> 1`` (a headerless file is read as
the kind its reader expects; later comment lines are skipped):

* series file —   ``# zerodyn series 1`` then one exact rational per
  line ("num/den" or integer), line n giving the coefficient of x^n;
* polynomial file — ``# zerodyn poly 1`` with the same layout, lowest
  degree first.

A series file is truncated where it ends, as are the ``truncated-exp``
and ``mittag-leffler`` presets; a ``poly:`` series is a polynomial, whose
tail is known to be zero (``PowerSeries.polynomial``), written and read
as a polynomial file.

Inline polynomial shorthand accepts integer-coefficient expressions
like ``x^3+6x`` or ``-2x^2+x-1``, each term after the first starting
with its sign (``2x3`` is an error, not 2x+3); the parser also takes
rational coefficients ("1/2x^2"), so ``str`` of a ``Poly`` round-trips.

JSON reports embed the run configuration; CSV emits one row per m or
per root for direct plotting, after a versioned comment line.
"""

from __future__ import annotations

import io
import json
import math
import re
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_UP, Context, Decimal
from fractions import Fraction
from typing import TYPE_CHECKING

from .limits import exp_series, ml_partial
from .poly import Poly
from .scalars import MIN_PRECISION_BITS, Point, fraction_str, parse_fraction
from .series import LPObstructionResult, OperatorClass, PowerSeries

if TYPE_CHECKING:  # report classes: a payload reads them, a job may not need their modules
    from .construct import CounterexampleReport, StagePlan
    from .dynamics import AttractorReport, ConvergenceReport, OnsetReport
    from .roots import RootSet

HEADER = "# zerodyn {} 1"  # first line of every file: its kind, then the format version

MP_DIGITS = 40  # serialized digits of roots and other floating values
_DECIMAL = Context(prec=MP_DIGITS, rounding=ROUND_HALF_UP, Emax=MAX_EMAX, Emin=MIN_EMIN)


# ---------------------------------------------------------------------------
# rationals / floats


def mpf_str(x) -> str:
    """The exact value of x (a Fraction, an int or a float) in decimal,
    rounded to MP_DIGITS significant digits by one correctly rounded
    ``decimal`` division, half up (away from zero); laid out as mpmath's
    ``nstr(x, MP_DIGITS, strip_zeros=True)`` lays out a value: fixed point
    for decimal exponents in (-13, MP_DIGITS), else ``e±n``."""
    x = Fraction(x)
    if not x:
        return "0.0"
    q = _DECIMAL.divide(Decimal(x.numerator), x.denominator)
    digits, _, exponent = format(q, "e").lstrip("-").replace(".", "").partition("e")
    split, exponent = 1, int(exponent)
    if -13 < exponent < MP_DIGITS:
        digits, split, exponent = "0" * -exponent + digits, max(exponent, 0) + 1, 0
    body = "-" * (x < 0) + digits[:split] + "." + (digits[split:].rstrip("0") or "0")
    return f"{body}e{exponent:+d}" if exponent else body


def mpc_pair(z):
    """[re, im] decimal strings of a ``Point`` or a complex."""
    return [mpf_str(z.real), mpf_str(z.imag)]


# ---------------------------------------------------------------------------
# coefficient files


def _read_coefficients(text: str, kinds):
    """(kind, coefficients) of a file of one of ``kinds``: a comment on its
    first non-blank line is the header and must read exactly
    ``# zerodyn <kind> 1``; a headerless file is of kind ``kinds[0]``, and
    every later comment line is skipped."""
    lines = [s for s in (ln.strip() for ln in text.splitlines()) if s]
    kind = kinds[0]
    if lines and lines[0].startswith("#"):
        header = lines.pop(0)
        kind = next((k for k in kinds if header == HEADER.format(k)), None)
        if kind is None:
            raise ValueError(
                f"file header {header!r} does not declare a {' or '.join(kinds)} file: "
                f"want exactly {' or '.join(repr(HEADER.format(k)) for k in kinds)}"
            )
    values = [parse_fraction(s) for s in lines if not s.startswith("#")]
    if not values:
        raise ValueError(f"no coefficients found in {kind} input")
    return kind, values


def parse_series_text(text: str) -> PowerSeries:
    """A series file's series, truncated where it ends; a polynomial file's polynomial."""
    kind, values = _read_coefficients(text, ("series", "poly"))
    return PowerSeries.polynomial(values) if kind == "poly" else PowerSeries(values)


def format_series_text(phi: PowerSeries) -> str:
    """A series file, or a polynomial file for a polynomial series (zero tail)."""
    header = HEADER.format("poly" if phi.truncation_order == math.inf else "series")
    body = "\n".join(fraction_str(c) for c in phi.coeffs)
    return f"{header}\n{body}\n"


def parse_poly_text(text: str) -> Poly:
    return Poly(_read_coefficients(text, ("poly",))[1])


def format_poly_text(f: Poly) -> str:
    body = "\n".join(fraction_str(c) for c in f.coeffs) if f.coeffs else "0"
    return f"{HEADER.format('poly')}\n{body}\n"


# ---------------------------------------------------------------------------
# inline polynomial shorthand

_TERM_RE = re.compile(
    r"""
    (?P<sign>[+-]?)\s*
    (?:
        (?P<coeff>\d+(?:/\d+)?)\s*\*?\s*(?P<var1>x(?:\^(?P<exp1>\d+))?)?
      | (?P<var2>x(?:\^(?P<exp2>\d+))?)
    )
    """,
    re.VERBOSE,
)


def parse_poly_inline(text: str) -> Poly:
    """Parse ``x^3+6x``-style shorthand into an exact polynomial."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial expression")
    pos = 0
    terms = {}
    while pos < len(s):
        mobj = _TERM_RE.match(s, pos)
        if not mobj or mobj.end() == pos or (pos and not mobj.group("sign")):
            raise ValueError(f"cannot parse polynomial at ...{s[pos:]!r}")
        sign = -1 if mobj.group("sign") == "-" else 1
        coeff = mobj.group("coeff")
        var = mobj.group("var1") or mobj.group("var2")
        exp = mobj.group("exp1") or mobj.group("exp2")
        c = parse_fraction(coeff) if coeff else Fraction(1)
        k = 0
        if var:
            k = int(exp) if exp else 1
        terms[k] = terms.get(k, Fraction(0)) + sign * c
        pos = mobj.end()
    deg = max(terms)
    return Poly([terms.get(k, Fraction(0)) for k in range(deg + 1)])


# ---------------------------------------------------------------------------
# series presets


def resolve_series(spec: str) -> PowerSeries:
    """Resolve a --series argument: preset, inline, or file path.

    Presets: ``truncated-exp:K`` (e^x partial sum through x^K),
    ``mittag-leffler:p:K``, ``poly:<inline shorthand>``.  Anything else
    is read as a coefficient file.  A ``poly:`` series or polynomial file
    is a polynomial (its tail is known to be zero); the others are truncated.
    """
    if spec.startswith(("truncated-exp:", "mittag-leffler:")):
        preset = re.fullmatch(r"truncated-exp:(\d+)|mittag-leffler:0*([1-9]\d*):(\d+)", spec)
        if preset is None:
            form = "truncated-exp:K with K >= 0" if spec.startswith("t") else (
                "mittag-leffler:p:K with p >= 1, K >= 0")
            raise ValueError(f"{spec!r} is not a valid preset: use {form}")
        if preset[1] is not None:
            return exp_series(1, 1, int(preset[1]))
        return ml_partial(int(preset[2]), int(preset[3]))
    if spec.startswith("poly:"):
        f = parse_poly_inline(spec.split(":", 1)[1])
        if f.is_zero:
            raise ValueError(f"{spec!r} is the zero series, not an operator series")
        return PowerSeries.polynomial(f.coeffs)
    try:
        fh = open(spec, "r", encoding="utf-8")
    except OSError as exc:
        raise ValueError(
            f"{spec!r} is not a readable series file (and not a preset; "
            f"presets are truncated-exp:K, mittag-leffler:p:K, poly:<inline>): {exc}"
        )
    with fh:
        return parse_series_text(fh.read())


def resolve_poly(spec: str) -> Poly:
    """Resolve a --poly argument: file path, else inline shorthand."""
    try:
        fh = open(spec, "r", encoding="utf-8")
    except OSError:
        try:
            return parse_poly_inline(spec)
        except ValueError as exc:
            raise ValueError(
                f"{spec!r} is neither a readable file nor inline shorthand: {exc}"
            )
    with fh:
        return parse_poly_text(fh.read())


# ---------------------------------------------------------------------------
# JSON payloads


def poly_payload(f: Poly):
    return {
        "coeffs": [fraction_str(c) for c in f.coeffs],
        "inline": str(f),
    }


def operator_class_payload(cls: OperatorClass):
    out = {"form": cls.form}
    if cls.is_general:
        out.update(p=cls.p, alpha=fraction_str(cls.alpha), beta=fraction_str(cls.beta))
    elif cls.is_pure_exponential:
        out.update(c=fraction_str(cls.c), gamma=fraction_str(cls.gamma))
    else:
        out.update(mu=cls.mu)
    return out


def lp_result_payload(res: LPObstructionResult):
    return {
        "verdict": str(res),
        "obstructed": res.obstructed,
        "d_witness": res.d_witness,
        "d_max": res.d_max,
        "nonreal_counts": list(res.nonreal_counts),
    }


def rootset_payload(rs: RootSet):
    return {
        "source_degree": rs.source_degree,
        "precision_bits": rs.precision_bits,
        "roots": [
            {
                "re": mpf_str(r.location.real),
                "im": mpf_str(r.location.imag),
                "multiplicity": r.multiplicity,
                "residual": r.residual,
            }
            for r in rs.roots
        ],
    }


def onset_payload(rep: OnsetReport):
    return {
        "mode": rep.mode,
        "m0": rep.m0,
        "m_max": rep.m_max,
        "found": rep.found,
        "trace": [{"m": m, "nonreal": n} for m, n in rep.trace],
    }


def convergence_payload(rep: ConvergenceReport):
    return {
        "p": rep.p,
        "alpha": fraction_str(rep.alpha),
        "beta": fraction_str(rep.beta),
        "fitted_slope": rep.fitted_slope,
        "exact_convergence": rep.exact_convergence,
        "limit_poly": poly_payload(rep.limit_poly),
        "samples": [
            {"m": m, "sup_norm_error": float(e)} for m, e in rep.samples
        ],
    }


def attractor_payload(rep: AttractorReport):
    return {
        "p": rep.p,
        "alpha": fraction_str(rep.alpha),
        "beta": fraction_str(rep.beta),
        "gamma": mpc_pair(rep.gamma),
        "epsilon": rep.epsilon,
        "records": [
            {
                "m": r.m,
                "max_scaled_star_distance": r.max_scaled_star_distance,
                "containment_epsilon_needed": r.containment_epsilon_needed,
                "contained": r.contained,
                "all_simple": r.all_simple,
            }
            for r in rep.records
        ],
    }


def plan_payload(plan: StagePlan):
    return {
        "degrees": list(plan.degrees),
        "gammas": [fraction_str(g) for g in plan.gammas],
        "targets": {
            f"{m},{k}": [fraction_str(a.real), fraction_str(a.imag)]
            for (m, k), a in plan.targets
        },
        "radii": {f"{m},{k}": fraction_str(r) for (m, k), r in plan.radii},
        "precision_bits": plan.precision_bits,
    }


def _plan_field(data, name, parse):
    """parse(data[name]); a missing or malformed field is a ValueError naming it."""
    try:
        return parse(data[name])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        msg = f"plan field {name!r} is missing or malformed: {exc!r}"
        raise ValueError(msg) from None


def _json_int(value):
    """value if it is a JSON integer (not a boolean or a float), else TypeError."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def _stage_key(key):
    m, k = key.split(",")
    return int(m), int(k)


def plan_from_payload(data) -> StagePlan:
    """The StagePlan ``plan_payload`` wrote; ValueError if a field is bad.

    Targets and radii are exact rationals ("num/den"; a decimal string
    reads as the rational it spells), so the plan checks exactly the disks
    the construction built; ``precision_bits`` (at least
    ``MIN_PRECISION_BITS``) and ``degrees`` are JSON integers.  A
    ``coefficient_bound_ok`` field, which older plan files carry, is
    ignored: the verifier recomputes both its clauses.
    """
    from .construct import StagePlan

    if not isinstance(data, dict):
        raise ValueError(f"a plan is a JSON object, not {type(data).__name__}")
    prec = _plan_field(data, "precision_bits", _json_int)
    if prec < MIN_PRECISION_BITS:
        msg = f"plan field 'precision_bits' must be >= {MIN_PRECISION_BITS}, not {prec}"
        raise ValueError(msg)
    targets = _plan_field(data, "targets", lambda v: {
        _stage_key(key): Point(parse_fraction(re_s), parse_fraction(im_s))
        for key, (re_s, im_s) in v.items()
    })
    radii = _plan_field(data, "radii", lambda v: {
        _stage_key(key): parse_fraction(r_s) for key, r_s in v.items()
    })
    degrees = _plan_field(data, "degrees", lambda v: tuple(map(_json_int, v)))
    gammas = _plan_field(data, "gammas", lambda v: tuple(parse_fraction(g) for g in v))
    for name, values, ok, what in (
        ("degrees", degrees, lambda d: d >= 1, "at least 1"),
        ("gammas", gammas, lambda g: g > 0, "positive"),
        ("radii", radii.values(), lambda r: r > 0, "positive"),
    ):
        bad = [v for v in values if not ok(v)]
        if bad:
            raise ValueError(f"plan field {name!r} entries must be {what}, not {bad[0]}")
    if len(gammas) > len(degrees):
        raise ValueError(
            f"plan fields disagree: {len(degrees)} degrees, {len(gammas)} gammas"
        )
    stages = {(m, k) for k in range(1, len(degrees) + 1) for m in range(1, k + 1)}
    for name, table in (("targets", targets), ("radii", radii)):
        if set(table) != stages:
            raise ValueError(
                f"plan field {name!r} must hold the keys m,k for "
                f"1 <= m <= k <= {len(degrees)}, not {sorted(table)}"
            )
    return StagePlan(
        degrees=degrees,
        targets=tuple(sorted(targets.items())),
        radii=tuple(sorted(radii.items())),
        gammas=gammas,
        precision_bits=prec,
    )


def counterexample_payload(rep: CounterexampleReport):
    return {
        "plan": plan_payload(rep.plan),
        "witnessed": {f"{m},{k}": mpc_pair(z) for (m, k), z in rep.witnessed},
        "nonreal_totals": {str(m): n for m, n in rep.nonreal_totals},
        "product_coeffs": [fraction_str(c) for c in rep.product_coeffs],
        "derivative_identity_ok": rep.derivative_identity_ok,
    }


# ---------------------------------------------------------------------------
# CSV: one row per m or per root, taken from the JSON payload

# CLI report kind -> (CSV kind, payload key of the rows, columns)
_CSV_TABLES = {
    "zeros": ("roots", "roots", ("re", "im", "multiplicity", "residual")),
    "onset": ("onset", "trace", ("m", "nonreal")),
    "converge": ("convergence", "samples", ("m", "sup_norm_error")),
    "attractor": (
        "attractor",
        "records",
        (
            "m",
            "containment_epsilon_needed",
            "max_scaled_star_distance",
            "contained",
            "all_simple",
        ),
    ),
}


def csv_text(kind: str, payload) -> str:
    """The CSV form of the ``kind`` report whose JSON payload is ``payload``;
    ValueError for a kind with no CSV schema."""
    if kind not in _CSV_TABLES:
        raise ValueError(f"{kind} has no CSV schema; use --format json")
    name, key, columns = _CSV_TABLES[kind]
    import csv  # only CSV output needs it; kept off the import path

    buf = io.StringIO()
    buf.write(HEADER.format(f"csv {name}") + "\n")
    writer = csv.DictWriter(buf, fieldnames=columns)
    writer.writeheader()
    writer.writerows(payload[key])
    return buf.getvalue()


def dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
