"""File formats, inline shorthand, presets, and serialization round-trips."""

import json
import math
from fractions import Fraction as F

import pytest

from zerodyn import Point, Poly, PowerSeries, build_plan, extend, find_roots
from zerodyn.dynamics import AttractorRecord, AttractorReport
from zerodyn.poly import format_poly_inline
from zerodyn.formats import (
    attractor_payload,
    csv_text,
    dump_json,
    format_poly_text,
    format_series_text,
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

    def test_wrong_kind_header_rejected(self):
        with pytest.raises(ValueError):
            parse_series_text("# zerodyn poly 1\n1\n2\n")


class TestPresets:
    def test_truncated_exp(self):
        phi = resolve_series("truncated-exp:5")
        assert phi == PowerSeries(F(1, math.factorial(n)) for n in range(6))

    def test_mittag_leffler(self):
        phi = resolve_series("mittag-leffler:2:3")
        assert phi == PowerSeries([1, F(1, 2), F(1, 24), F(1, 720)])

    def test_poly_preset_extends_to_min_order(self):
        phi = resolve_series("poly:1-x^2", min_order=6)
        assert phi.truncation_order == 6
        assert phi.coeffs[:3] == (F(1), F(0), F(-1))

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
        phi = extend(PowerSeries([1, 1, 1]), 12)
        plan = build_plan(phi, 2, d_cap=12)
        assert plan_from_payload(json.loads(dump_json(plan_payload(plan)))) == plan

    def test_decimal_disks_still_parse(self):
        phi = extend(PowerSeries([1, 1, 1]), 12)
        data = plan_payload(build_plan(phi, 1, d_cap=12))
        data["targets"]["1,1"] = ["-1.25", "0.5e1"]
        data["radii"]["1,1"] = "2.5"
        back = plan_from_payload(data)
        assert back.targets[(1, 1)] == Point(F(-5, 4), F(5))
        assert back.radii[(1, 1)] == F(5, 2)


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
