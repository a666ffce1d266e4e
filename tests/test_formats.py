"""File formats, inline shorthand, presets, and serialization round-trips."""

import decimal
import json
import math
from fractions import Fraction as F

import mpmath as mp
import pytest

from conftest import make_rng, mpf_to_fraction, to_mp

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
from zerodyn import Point, Poly, PowerSeries, build_plan, classify, find_roots, pick_targets
from zerodyn.cli import main
from zerodyn.dynamics import AttractorRecord, AttractorReport
from zerodyn.poly import format_poly_inline
from zerodyn.formats import (
    MP_DIGITS,
    attractor_payload,
    csv_text,
    dump_json,
    format_poly_text,
    format_series_text,
    mpf_str,
    parse_poly_inline,
    parse_poly_text,
    parse_series_text,
    plan_from_payload,
    plan_payload,
    resolve_poly,
    resolve_series,
    rootset_payload,
)


class TestInlineShorthand:
    @pytest.mark.parametrize(
        "text,coeffs",
        [
            ("x^3+6x", [0, 6, 0, 1]),
            ("x^2-2x+2", [2, -2, 1]),
            ("-x", [0, -1]),
            ("7", [7]),
            ("1+x+x^2", [1, 1, 1]),
            ("2x^4", [0, 0, 0, 0, 2]),
            ("1/2x^2+1/3", [F(1, 3), 0, F(1, 2)]),
        ],
    )
    def test_parse(self, text, coeffs):
        assert parse_poly_inline(text) == Poly(coeffs)

    def test_round_trip(self):
        for coeffs in ([0, 6, 0, 1], [2, -2, 1], [F(1, 2), -1, F(3, 4)], [-7]):
            f = Poly(coeffs)
            assert parse_poly_inline(format_poly_inline(f)) == f
            assert parse_poly_inline(str(f)) == f

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_poly_inline("x^^2")
        with pytest.raises(ValueError):
            parse_poly_inline("")

    @pytest.mark.parametrize(
        "text, rest", [("2x3", "'3'"), ("x^2x", "'x'"), ("x^2 x", "'x'"), ("x2", "'2'")]
    )
    def test_terms_after_the_first_need_a_sign(self, text, rest):
        with pytest.raises(ValueError, match=f"cannot parse polynomial at ...{rest}"):
            parse_poly_inline(text)


class TestCoefficientFiles:
    def test_series_round_trip(self):
        phi = PowerSeries([1, F(1, 2), F(-3, 7), 0, 2])
        text = format_series_text(phi)
        assert text.splitlines()[0].startswith("# zerodyn series")
        assert parse_series_text(text) == phi

    def test_poly_round_trip(self):
        f = Poly([F(2, 3), 0, -1, 5])
        text = format_poly_text(f)
        assert text.splitlines()[0].startswith("# zerodyn poly")
        assert parse_poly_text(text) == f

    def test_headerless_accepted(self):
        assert parse_series_text("1\n1/2\n") == PowerSeries([1, F(1, 2)])
        assert parse_poly_text("\n1\n1/2\n") == Poly([1, F(1, 2)])

    def test_later_comment_lines_skipped(self):
        text = "# zerodyn series 1\n1\n# any note\n1/2\n#\n"
        assert parse_series_text(text) == PowerSeries([1, F(1, 2)])
        text = "# zerodyn poly 1\n1\n# zerodyn poly 7\n2\n"
        assert parse_poly_text(text) == Poly([1, 2])

    def test_header_is_the_first_non_blank_line(self):
        # a comment after a coefficient is a note, even one that reads as a header
        assert parse_series_text("1\n# note\n2\n") == PowerSeries([1, 2])
        assert parse_series_text("1\n# zerodyn poly 1\n2\n") == PowerSeries([1, 2])
        assert parse_series_text("\n\n# zerodyn poly 1\n1\n") == PowerSeries.polynomial([1])

    def test_wrong_kind_header_rejected(self):
        with pytest.raises(ValueError, match="does not declare a poly"):
            parse_poly_text("# zerodyn series 1\n1\n2\n")
        with pytest.raises(ValueError, match="does not declare a series"):
            parse_series_text("# zerodyn csv onset 1\n1\n2\n")

    @pytest.mark.parametrize(
        "parse, header",
        [
            (parse_poly_text, "# this is not a polynomial file"),
            (parse_poly_text, "# zerodyn poly 7"),
            (parse_poly_text, "# zerodyn poly"),
            (parse_poly_text, "# zerodyn poly 1 extra"),
            (parse_series_text, "# zerodyn series 99"),
            (parse_series_text, "# zerodyn poly 10"),
            (parse_series_text, "# zerodyn series"),
            (parse_series_text, "# zerodyn-series 1"),
        ],
    )
    def test_header_must_read_exactly_zerodyn_kind_version(self, parse, header):
        with pytest.raises(ValueError, match=f"file header '{header}' does not declare"):
            parse(f"{header}\n1\n2\n")

    def test_poly_header_reads_as_a_polynomial_series(self):
        assert parse_series_text("# zerodyn poly 1\n1\n2\n") == PowerSeries.polynomial([1, 2])
        assert parse_series_text("# zerodyn series 1\n1\n2\n") == PowerSeries([1, 2])

    @pytest.mark.parametrize("coeffs", [[1, 1, F(1, 2)], [2, 0, -1, 0], [F(-1, 3)]])
    def test_polynomial_series_round_trip(self, coeffs):
        # a polynomial truncated at its degree would classify otherwise:
        # 1 + x + x^2/2 is General(p=3), its truncation PureExponential
        phi = PowerSeries.polynomial(coeffs)
        text = format_series_text(phi)
        assert text.splitlines()[0] == "# zerodyn poly 1"
        back = parse_series_text(text)
        assert back == phi and back.truncation_order == math.inf
        assert classify(back) == classify(phi)


class TestPresets:
    def test_truncated_exp(self):
        phi = resolve_series("truncated-exp:5")
        assert phi == PowerSeries(F(1, math.factorial(n)) for n in range(6))

    def test_mittag_leffler(self):
        phi = resolve_series("mittag-leffler:2:3")
        assert phi == PowerSeries([1, F(1, 2), F(1, 24), F(1, 720)])

    def test_poly_preset_is_a_polynomial(self):
        phi = resolve_series("poly:1-x^2")
        assert phi == PowerSeries.polynomial([1, 0, -1])
        assert phi.truncation_order == math.inf
        assert phi.head(5) == (F(1), F(0), F(-1), F(0), F(0), F(0))

    @pytest.mark.parametrize(
        "spec, form",
        [
            ("truncated-exp:x", "truncated-exp:K with K >= 0"),
            ("truncated-exp:-1", "truncated-exp:K with K >= 0"),
            ("truncated-exp:2:3", "truncated-exp:K with K >= 0"),
            ("mittag-leffler:2", "mittag-leffler:p:K with p >= 1, K >= 0"),
            ("mittag-leffler:0:3", "mittag-leffler:p:K with p >= 1, K >= 0"),
            ("mittag-leffler:2:x", "mittag-leffler:p:K with p >= 1, K >= 0"),
        ],
    )
    def test_malformed_preset_names_its_form(self, capsys, spec, form):
        with pytest.raises(ValueError, match=f"'{spec}' is not a valid preset: use {form}$"):
            resolve_series(spec)
        assert main(["classify", "--series", spec]) == 2
        assert form in capsys.readouterr().err

    def test_file_fallback(self, tmp_path):
        path = tmp_path / "phi.txt"
        path.write_text(format_series_text(PowerSeries([1, 1, 1])))
        assert resolve_series(str(path)) == PowerSeries([1, 1, 1])

    def test_resolve_poly_inline_and_file(self, tmp_path):
        assert resolve_poly("x^2+1") == Poly([1, 0, 1])
        path = tmp_path / "f.txt"
        path.write_text(format_poly_text(Poly([1, 0, 1])))
        assert resolve_poly(str(path)) == Poly([1, 0, 1])


class TestPlanRoundTrip:
    def test_plan_survives_json(self):
        # targets and radii are written exactly, so the plan comes back equal
        phi = PowerSeries.polynomial([1, 1, 1])
        plan = build_plan(phi, 2, d_cap=12)
        back = plan_from_payload(json.loads(dump_json(plan_payload(plan))))
        assert back == plan and hash(back) == hash(plan)

    def test_three_stage_targets_come_back_in_key_order(self):
        # pick_targets runs k-major, (1,1) (1,2) (2,2) (1,3) ...; the plan,
        # its JSON and the plan read back all hold (m, k) order
        phi = PowerSeries.polynomial([1, 1, 1])
        plan = pick_targets(phi, [2, 3, 4])
        keys = [(m, k) for m in (1, 2, 3) for k in (1, 2, 3) if m <= k]
        assert [key for key, _a in plan.targets] == keys
        assert [key for key, _r in plan.radii] == keys
        data = json.loads(dump_json(plan_payload(plan)))
        assert list(data["targets"]) == [f"{m},{k}" for m, k in keys]
        data["targets"] = dict(reversed(data["targets"].items()))
        back = plan_from_payload(data)
        assert back == plan and hash(back) == hash(plan)

    def test_decimal_disks_still_parse(self):
        phi = PowerSeries.polynomial([1, 1, 1])
        data = plan_payload(build_plan(phi, 1, d_cap=12))
        data["targets"]["1,1"] = ["-1.25", "0.5e1"]
        data["radii"]["1,1"] = "2.5"
        back = plan_from_payload(data)
        assert back.targets == (((1, 1), Point(F(-5, 4), F(5))),)
        assert back.radii == (((1, 1), F(5, 2)),)

    def test_old_plan_files_with_coefficient_bound_ok_still_load(self):
        phi = PowerSeries.polynomial([1, 1, 1])
        plan = build_plan(phi, 1, d_cap=12)
        data = plan_payload(plan)
        assert "coefficient_bound_ok" not in data
        data["coefficient_bound_ok"] = [True]
        assert plan_from_payload(data) == plan


class TestRootsetCSV:
    def test_versioned_header_and_rows(self):
        rs = find_roots(Poly([2, 2, 1]))
        text = csv_text("zeros", rootset_payload(rs))
        lines = text.strip().splitlines()
        assert lines[0].startswith("# zerodyn csv roots")
        assert lines[1] == "re,im,multiplicity,residual"
        assert len(lines) == 4


class TestAttractorCSV:
    def test_rows_in_column_order_and_missing_simple_left_empty(self):
        rep = AttractorReport(
            p=2, alpha=F(1), beta=F(1, 2), gamma=1j, epsilon=0.5,
            records=(
                AttractorRecord(
                    m=1, max_scaled_star_distance=0.25,
                    containment_epsilon_needed=0.125, contained=True, all_simple=None,
                ),
                AttractorRecord(
                    m=4, max_scaled_star_distance=1e-20,
                    containment_epsilon_needed=0.75, contained=False, all_simple=True,
                ),
            ),
        )
        assert csv_text("attractor", attractor_payload(rep)) == (
            "# zerodyn csv attractor 1\n"
            "m,containment_epsilon_needed,max_scaled_star_distance,contained,"
            "all_simple\r\n"
            "1,0.125,0.25,True,\r\n"
            "4,0.75,1e-20,False,True\r\n"
        )


def _nstr(x):
    """mpmath's 40-digit form of the exact value x: a dyadic converts
    exactly, any other far below the last digit."""
    bits = max(abs(x.numerator).bit_length(), 4000)
    return mp.nstr(to_mp(x, bits), MP_DIGITS, strip_zeros=True)


def digit_search_mpf_str(x):
    """mpf_str as it was before it used ``decimal``: it searched for the
    decimal exponent on integers and rounded half up on the exact remainder."""
    x = F(x)
    n, d = abs(x.numerator), x.denominator
    if not n:
        return "0.0"
    exponent = math.floor((n.bit_length() - d.bit_length()) * math.log10(2))
    while True:
        k = MP_DIGITS - 1 - exponent
        num, den = (n * 10**k, d) if k >= 0 else (n, d * 10**-k)
        q, rem = divmod(num, den)
        if q >= 10**MP_DIGITS:
            exponent += 1
        elif q < 10 ** (MP_DIGITS - 1):
            exponent -= 1
        else:
            break
    q += 2 * rem >= den
    if q == 10**MP_DIGITS:
        q, exponent = q // 10, exponent + 1
    digits, split = str(q), 1
    if -13 < exponent < MP_DIGITS:
        digits, split, exponent = "0" * -exponent + digits, max(exponent, 0) + 1, 0
    body = "-" * (x < 0) + digits[:split] + "." + (digits[split:].rstrip("0") or "0")
    return f"{body}e{exponent:+d}" if exponent else body


def _edge_values():
    """The layout switch at 10^-13 and 10^MP_DIGITS, carries through nines
    and exact midpoints, short exact quotients and the double range's ends."""
    for j in range(-16, MP_DIGITS + 4):
        for u in (1, 1 - F(1, 10**41), 1 - F(1, 10**40), 1 + F(5, 10**40), F(1, 3), F(7, 2)):
            yield F(10) ** j * u
    yield from (1e300, -1e300, 5e-324, 1.7976931348623157e308, 0.1, -2.5, 1e-13, 1e-12)
    yield from (F(10**40 - 1), F(10**41 - 5), F(2) ** 200, F(-1, 2**300), 0)


class TestDecimalFormatter:
    def test_edge_values_match_the_digit_search(self):
        for x in _edge_values():
            for v in (x, -x):
                assert mpf_str(v) == digit_search_mpf_str(v), v

    def test_the_ambient_decimal_context_is_not_read(self):
        values = (F(2, 3), F(10**45 + 7), 1e-20, F(-5, 2))
        want = [digit_search_mpf_str(x) for x in values]
        with decimal.localcontext() as ctx:
            ctx.prec, ctx.rounding, ctx.Emax, ctx.Emin = 3, decimal.ROUND_FLOOR, 10, -10
            ctx.traps[decimal.Inexact] = True
            assert [mpf_str(x) for x in values] == want

    @hypothesis.settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.fractions() | st.floats(allow_nan=False, allow_infinity=False))
    def test_fractions_and_floats_match_the_digit_search(self, x):
        assert mpf_str(x) == digit_search_mpf_str(x)


    def test_random_dyadics_match_mpmath(self):
        rng = make_rng(40)
        for _ in range(10_000):
            bits = rng.randint(1, 600)
            man = (rng.getrandbits(bits) | 1 << (bits - 1)) * rng.choice((1, -1))
            x = F(man) * F(2) ** (rng.randint(-300, 900) - bits)
            assert mpf_str(x) == _nstr(x), x

    def test_powers_of_ten_and_carries_through_nines(self):
        for j in range(-40, 60):
            for x in (F(10) ** j * u for u in (1, 1 - F(1, 10**41), 1 - F(1, 10**40))):
                assert mpf_str(x) == _nstr(x) and mpf_str(-x) == _nstr(-x), x
        assert mpf_str(F(10) ** 5 * (1 - F(1, 10**41))) == "100000.0"

    def test_just_above_a_midpoint_as_in_mpmath(self):
        # mpmath floors |x| to about 152 bits before it takes decimal digits,
        # so it rounds a 400-bit dyadic just above the midpoint
        # 10^j (1 + 5 10^-40) down; the exact remainder rounds it up, to
        # 10^j (1 + 10^-39), which mpmath prints exactly
        for j in range(-15, 45):
            v = F(10) ** j * (1 + F(5, 10**40))
            x = F(math.ceil(v * 2**400), 2**400)
            assert mpf_str(x) == _nstr(F(10) ** j * (1 + F(1, 10**39))), x
        x = F(math.ceil((1 + F(5, 10**40)) * 2**400), 2**400)
        assert mpf_str(x) == "1.000000000000000000000000000000000000001"

    def test_zero_floats_and_mpf(self):
        assert mpf_str(F(0)) == mpf_str(0) == mp.nstr(mp.mpf(0), MP_DIGITS) == "0.0"
        for v in (1.5, -2.5e-30, 1e300, 2.0**-1074):
            assert mpf_str(v) == mp.nstr(mp.mpf(v), MP_DIGITS, strip_zeros=True)
        with mp.workprec(300):
            for v in (mp.sqrt(2), -mp.pi * 10**50, mp.exp(-100)):
                assert mpf_str(mpf_to_fraction(v)) == mp.nstr(v, MP_DIGITS, strip_zeros=True)

    def test_non_dyadic_degree_one_root(self):
        (root,) = rootset_payload(find_roots(Poly([-1, 3])))["roots"]
        assert root["re"] == _nstr(F(1, 3)) == "0." + "3" * MP_DIGITS
        assert root["im"] == "0.0"
