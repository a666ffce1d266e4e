"""CLI contract: subcommands, exit codes, config echo, round-trips."""

import argparse
import json
import os
import shlex

import pytest

from zerodyn import Poly, PowerSeries, build_plan
from zerodyn.cli import _SETTINGS, build_parser, main
from zerodyn.scalars import DEFAULT_D_CAP, DEFAULT_M_MAX, DEFAULT_PRECISION_BITS
from zerodyn.formats import dump_json, format_series_text, parse_poly_inline, plan_payload

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestClassify:
    def test_general_output(self, capsys):
        doc = run_json(capsys, "classify", "--series", "poly:1+x+x^2")
        assert doc["form"] == "General"
        assert (doc["p"], doc["alpha"], doc["beta"]) == (2, "1", "1/2")

    def test_pure_exponential(self, capsys):
        doc = run_json(capsys, "classify", "--series", "truncated-exp:6")
        assert doc["form"] == "PureExponential"



class TestPolySeriesIsOneOperator:
    """A poly: series has a zero tail, so every subcommand reads one operator."""

    @pytest.mark.parametrize(
        "spec, p, beta", [("poly:1+x+1/2x^2", 3, "-1/6"), ("poly:1+x", 2, "-1/2")]
    )
    def test_classify_reads_past_the_degree(self, capsys, spec, p, beta):
        doc = run_json(capsys, "classify", "--series", spec)
        assert (doc["form"], doc["p"], doc["beta"]) == ("General", p, beta)

    def test_onset_classifies_alike_for_every_degree(self, capsys):
        series = ("--series", "poly:1+x+1/2x^2", "--m-max", "3")
        code, out, err = run_cli(capsys, "onset", *series, "--poly", "x^2+1")
        assert (code, out) == (2, "") and "needs deg f >= p = 3" in err
        doc = run_json(capsys, "onset", *series, "--poly", "x^3+x")
        assert doc["mode"] == "PersistentNonreal"

    def test_discrepancy_below_the_degree_p(self, capsys):
        doc = run_json(capsys, "discrepancy", "--series", "poly:1+x", "--d", "1", "--m", "4")
        assert doc["exact"] == "0"

    def test_lp_test_after_stripping_the_monomial(self, capsys):
        doc = run_json(capsys, "lp-test", "--series", "poly:x^2+x^3", "--d-max", "3")
        assert doc["verdict"] == "NoObstructionUpTo(3)"

    def test_construct_after_stripping_the_monomial(self, capsys):
        run_json(
            capsys, "construct", "--series", "poly:x+x^2+x^3", "--stages", "1",
            "--d-cap", "4",
        )


class TestScaledSeriesIsOneOperator:
    """c * phi and phi are one operator: every experiment iterates phi / phi(0)."""

    def test_converge_reads_one_report(self, capsys):
        args = ("--poly", "x^4+1", "--m-list", "1,4,16,64")
        scaled = run_json(capsys, "converge", "--series", "poly:2+x+x^2", *args)
        unit = run_json(capsys, "converge", "--series", "poly:1+1/2x+1/2x^2", *args)
        assert scaled == unit
        assert [s["sup_norm_error"] for s in unit["samples"]] == [5.0, 2.5, 1.25, 0.625]
        assert unit["fitted_slope"] == pytest.approx(-0.5)


class TestIterate:
    def test_closed_form_with_count(self, capsys):
        doc = run_json(
            capsys,
            "iterate",
            "--series", "poly:1+x^2",
            "--poly", "x^3",
            "--m", "5",
            "--op-count", "nonreal",
        )
        assert doc["poly"] == "x^3+30x"
        assert doc["nonreal"] == 2

    def test_emitted_poly_reparses_identically(self, capsys):
        doc = run_json(
            capsys, "iterate", "--series", "poly:1+x-x^2", "--poly", "x^2", "--m", "3"
        )
        assert parse_poly_inline(doc["poly"]) == Poly([0, 6, 1])

    def test_apply_is_single_step(self, capsys):
        doc = run_json(capsys, "apply", "--series", "poly:1+x^2", "--poly", "x^3")
        assert doc["poly"] == "x^3+6x"


class TestJensen:
    def test_coeffs_and_roots(self, capsys):
        doc = run_json(capsys, "jensen", "--p", "3", "--q", "2", "--roots")
        assert doc["coeffs"] == ["1", "1/3", "1/360"]
        assert len(doc["roots"]) == 2
        assert all(float(r["re"]) < 0 for r in doc["roots"])
        assert all(abs(float(r["im"])) < 1e-9 for r in doc["roots"])


class TestImaginaryAxisZeros:
    """An even input's zeros on the imaginary axis print a real part of 0."""

    def test_biquadratic(self, capsys):
        doc = run_json(capsys, "zeros", "--poly", "x^4+3x^2+1", "--precision-bits", "128")
        assert [r["re"] for r in doc["roots"]] == ["0.0"] * 4

    @pytest.mark.parametrize("bits", ["64", "128", "256"])
    def test_quadratic(self, capsys, bits):
        doc = run_json(capsys, "zeros", "--poly", "x^2+29/126", "--precision-bits", bits)
        assert [r["re"] for r in doc["roots"]] == ["0.0"] * 2

    def test_attractor_gamma(self, capsys):
        # beta = 29/126: gamma = i sqrt(29/126), a zero of x^2 + 29/126
        doc = run_json(
            capsys, "attractor", "--series", "poly:1+1/3x+2/7x^2", "--poly", "x^2+1",
            "--m-list", "1", "--epsilon", "0.5", "--precision-bits", "128",
        )
        assert doc["gamma"][0] == "0.0" and float(doc["gamma"][1]) > 0


class TestFormatsAndOutput:
    def test_csv_zeros(self, capsys):
        code, out, _ = run_cli(
            capsys, "zeros", "--poly", "x^2+2x+2", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# zerodyn csv roots")
        assert len(lines) == 4

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(
            capsys, "hermite", "--d", "4", "--output", str(target)
        )
        assert code == 0 and out == ""
        doc = json.loads(target.read_text())
        assert doc["coeffs"] == ["12", "0", "-48", "0", "16"]

    def test_config_echoed(self, capsys):
        doc = run_json(capsys, "zeros", "--poly", "x^2+1", "--precision-bits", "128")
        assert doc["config"]["precision_bits"] == 128

    def test_csv_without_schema_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--series", "poly:1+x",
                               "--format", "csv")
        assert code == 2
        assert "unrecognized arguments: --format csv" in err


class TestExperimentsviaCLI:
    def test_lp_test(self, capsys):
        doc = run_json(capsys, "lp-test", "--series", "poly:1+x+x^2", "--d-max", "5")
        assert doc["verdict"] == "CertifiedNotLP(2)"
        assert doc["d_witness"] == 2

    def test_onset(self, capsys):
        doc = run_json(
            capsys,
            "onset",
            "--series", "poly:1+x-x^2",
            "--poly", "x^2-2x+2",
            "--m-max", "20",
        )
        assert doc["mode"] == "AllRealSimple"
        assert doc["m0"] == 1

    def test_converge_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "converge",
            "--series", "poly:1-x^2",
            "--poly", "x^4",
            "--m-list", "1:10",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# zerodyn csv convergence")
        assert len(lines) == 12  # header comment + column row + 10 samples

    def test_discrepancy(self, capsys):
        doc = run_json(
            capsys, "discrepancy", "--series", "poly:1-x^2", "--d", "4", "--m", "100"
        )
        assert doc["exact"] == "3/25"

    def test_attractor(self, capsys):
        doc = run_json(
            capsys,
            "attractor",
            "--series", "poly:1+x^2",
            "--poly", "x^3",
            "--m-list", "1,2,3",
            "--epsilon", "0.1",
        )
        assert all(rec["contained"] for rec in doc["records"])

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "0", "-1"])
    def test_meaningless_epsilon_is_an_input_error(self, capsys, epsilon):
        code, _, err = run_cli(
            capsys,
            "attractor",
            "--series", "poly:1+x^2",
            "--poly", "x^3",
            "--m-list", "1",
            "--epsilon", epsilon,
        )
        assert code == 2
        assert "input error" in err and "epsilon" in err

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("converge", ("--m-list", "1,2")),
            ("attractor", ("--m-list", "1,2", "--epsilon", "0.1")),
        ],
    )
    def test_non_monic_poly_is_an_input_error(self, capsys, command, extra):
        code, out, err = run_cli(
            capsys, command, "--series", "poly:1+x^2", "--poly", "2x^3+1", *extra
        )
        assert (code, out) == (2, "")
        assert err.startswith("input error: f must be monic of degree >= 1")

    def test_limit_poly(self, capsys):
        doc = run_json(capsys, "limit-poly", "--beta", "-1", "--p", "2", "--d", "4")
        assert doc["coeffs"] == ["12", "0", "-12", "0", "1"]


class TestConstructCLI:
    def test_pipeline_and_resume(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.json"
        doc = run_json(
            capsys,
            "construct",
            "--series", "poly:1+x+x^2",
            "--stages", "2",
            "--d-cap", "12",
            "--plan-out", str(plan_path),
        )
        assert doc["plan"]["degrees"] == [2, 3]
        assert set(doc["witnessed"]) >= {"1,1", "1,2", "2,2"}
        doc2 = run_json(
            capsys,
            "verify-construct",
            "--series", "poly:1+x+x^2",
            "--plan", str(plan_path),
            "--d-cap", "12",
        )
        assert doc2["nonreal_totals"] == doc["nonreal_totals"]

    @pytest.mark.parametrize(
        "payload, named",
        [({"degrees": [1]}, "precision_bits"), ([1, 2], "JSON object")],
    )
    def test_malformed_plan_is_an_input_error(self, capsys, tmp_path, payload, named):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(payload))
        code, out, err = run_cli(
            capsys, "verify-construct", "--series", "poly:1+x+x^2",
            "--plan", str(plan_path), "--d-cap", "12",
        )
        assert (code, out) == (2, "") and err.startswith("input error:")
        assert named in err

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("degrees", [2], "plan fields disagree"),
            ("targets", {}, "'targets'"),
            ("gammas", ["0", "1/16"], "'gammas' entries must be positive"),
            ("gammas", ["1", "-1/16"], "'gammas' entries must be positive"),
            ("degrees", [0, 3], "'degrees' entries must be at least 1"),
            # disks are exact rationals: nan and inf do not parse
            ("radii", {"1,1": "nan", "1,2": "1", "2,2": "1"}, "'radii' is missing or malformed"),
            ("radii", {"1,1": "1", "1,2": "inf", "2,2": "1"}, "'radii' is missing or malformed"),
            ("radii", {"1,1": "1", "1,2": "1", "2,2": "-1"}, "'radii' entries must be positive"),
            ("radii", {"1,1": "0", "1,2": "1", "2,2": "1"}, "'radii' entries must be positive"),
            (
                "targets",
                {"1,1": ["nan", "1"], "1,2": ["0", "1"], "2,2": ["0", "1"]},
                "'targets' is missing or malformed",
            ),
            (
                "targets",
                {"1,1": ["0", "1"], "1,2": ["0", "-inf"], "2,2": ["0", "1"]},
                "'targets' is missing or malformed",
            ),
            ("radii", {"1,1": "1", "1,2": "1/0", "2,2": "1"}, "'radii' is missing or malformed"),
            # the plan's precision has the floor of --precision-bits, and
            # integer fields are JSON integers, never truncated floats or booleans
            ("precision_bits", 8, "'precision_bits' must be >= 64, not 8"),
            ("precision_bits", 63, "'precision_bits' must be >= 64, not 63"),
            ("precision_bits", 256.9, "'precision_bits' is missing or malformed"),
            ("precision_bits", True, "'precision_bits' is missing or malformed"),
            ("degrees", [2.5, 3.5], "'degrees' is missing or malformed"),
            ("degrees", [2, 3.0], "'degrees' is missing or malformed"),
        ],
    )
    def test_disagreeing_plan_fields_are_an_input_error(
        self, capsys, tmp_path, field, value, named
    ):
        data = plan_payload(build_plan(PowerSeries.polynomial([1, 1, 1]), 2, d_cap=12))
        data[field] = value
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(dump_json(data))
        code, out, err = run_cli(
            capsys, "verify-construct", "--series", "poly:1+x+x^2",
            "--plan", str(plan_path), "--d-cap", "12",
        )
        assert (code, out) == (2, "") and err.startswith("input error:")
        assert named in err

    def test_plan_at_the_precision_floor_verifies(self, capsys, tmp_path):
        data = plan_payload(build_plan(PowerSeries.polynomial([1, 1, 1]), 2, d_cap=12))
        data["precision_bits"] = 64
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(dump_json(data))
        doc = run_json(
            capsys, "verify-construct", "--series", "poly:1+x+x^2", "--plan", str(plan_path)
        )
        assert doc["plan"]["precision_bits"] == 64
        assert set(doc["witnessed"]) == {"1,1", "1,2", "2,2"}

    @pytest.mark.parametrize("m", ["0", "-3"])
    def test_m_below_one_is_an_input_error(self, capsys, tmp_path, m):
        plan_path = tmp_path / "plan.json"
        plan = build_plan(PowerSeries.polynomial([1, 1, 1]), 1, d_cap=12)
        plan_path.write_text(dump_json(plan_payload(plan)))
        code, out, err = run_cli(
            capsys, "verify-construct", "--series", "poly:1+x+x^2",
            "--plan", str(plan_path), "--d-cap", "12", "--m", m,
        )
        assert (code, out) == (2, "") and "1 <= M <= N" in err
        code, out, err = run_cli(
            capsys, "construct", "--series", "poly:1+x+x^2", "--stages", "1",
            "--d-cap", "12", "--m", m,
        )
        assert (code, out) == (2, "") and "1 <= M <= N" in err

    @pytest.mark.parametrize("m", ["0", "3"])
    def test_m_outside_the_stages_is_rejected_before_any_work(self, capsys, monkeypatch, m):
        def fail(*args, **kwargs):
            raise AssertionError("build_plan ran for an --m the arguments rule out")

        monkeypatch.setattr("zerodyn.construct.build_plan", fail)
        code, out, err = run_cli(
            capsys, "construct", "--series", "poly:1+x+x^2", "--stages", "2",
            "--d-cap", "12", "--m", m,
        )
        assert (code, out) == (2, "") and f"need 1 <= M <= N, got M = {m}, N = 2" in err

    def test_csv_without_schema_is_rejected_before_any_work(self, capsys, tmp_path):
        plan_path = tmp_path / "plan.json"
        code, out, err = run_cli(
            capsys, "construct", "--series", "poly:1+x+x^2", "--stages", "1",
            "--d-cap", "12", "--format", "csv", "--plan-out", str(plan_path),
        )
        assert (code, out) == (2, "") and "unrecognized arguments: --format csv" in err
        assert not plan_path.exists()

    def test_product_past_the_truncation_fails_before_any_gamma_trial(
        self, capsys, monkeypatch, tmp_path
    ):
        calls = []

        def counting(*args):
            calls.append(args)
            return True

        monkeypatch.setattr("zerodyn.construct._stage_predicate", counting)
        # a series file is truncated where it ends; witness degrees 2, 3, 4 sum to 9
        series_path = tmp_path / "phi.txt"
        series_path.write_text(format_series_text(PowerSeries([1, "1/2", "1/2"] + [0] * 6)))
        code, out, err = run_cli(
            capsys, "construct", "--series", str(series_path), "--stages", "3",
            "--d-cap", "8", "--gamma0", "1/4",
        )
        assert (code, out) == (2, "") and err.startswith("input error:")
        assert "operator series truncated at 8, product degree is 9" in err
        assert calls == []

    def test_poly_series_reaches_any_product_degree(self, capsys, tmp_path):
        # poly: has a zero tail, so degrees 2 + 3 + 4 past --d-cap 8 are fine
        plan_path = tmp_path / "plan.json"
        series = ("--series", "poly:1+1/2x+1/2x^2", "--d-cap", "8")
        doc = run_json(
            capsys, "construct", *series, "--stages", "3", "--gamma0", "1/4",
            "--plan-out", str(plan_path),
        )
        assert doc["plan"]["degrees"] == [2, 3, 4]
        again = run_json(capsys, "verify-construct", *series, "--plan", str(plan_path))
        assert again["nonreal_totals"] == doc["nonreal_totals"] == {"1": 6, "2": 8, "3": 8}

    def test_plan_with_no_stage_fixed_is_an_input_error(self, capsys, tmp_path):
        data = plan_payload(build_plan(PowerSeries.polynomial([1, 1, 1]), 1, d_cap=12))
        data["gammas"] = []
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(dump_json(data))
        code, out, err = run_cli(
            capsys, "verify-construct", "--series", "poly:1+x+x^2",
            "--plan", str(plan_path), "--d-cap", "12",
        )
        assert (code, out) == (2, "") and err.startswith("input error:")
        assert "fixes no stage" in err

    def test_negative_control_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "construct", "--series", "poly:1+x", "--stages", "1",
            "--d-cap", "10",
        )
        assert code == 1
        assert "verification failure" in err


class TestZeroPolynomial:
    """The zero polynomial has degree -inf; Z_C(0) = 0."""

    @pytest.mark.parametrize(
        "command, extra",
        [("apply", ()), ("iterate", ("--m", "3", "--op-count", "nonreal"))],
    )
    def test_iterates_to_zero(self, capsys, command, extra):
        doc = run_json(capsys, command, "--series", "poly:1+x^2", "--poly", "0", *extra)
        assert (doc["poly"], doc["coeffs"], doc["inline"]) == ("0", [], "0")
        assert doc.get("nonreal", 0) == 0

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("onset", ()),
            ("converge", ("--m-list", "1,2")),
            ("attractor", ("--m-list", "1,2", "--epsilon", "0.1")),
        ],
    )
    def test_experiments_reject_it(self, capsys, command, extra):
        code, out, err = run_cli(
            capsys, command, "--series", "poly:1+x^2", "--poly", "0", *extra
        )
        assert (code, out) == (2, "") and err.startswith("input error:")

    def test_zero_series_is_an_input_error(self, capsys):
        code, out, err = run_cli(
            capsys, "iterate", "--series", "poly:0", "--poly", "x^2", "--m", "1"
        )
        assert (code, out) == (2, "") and err.startswith("input error:")
        assert "'poly:0' is the zero series" in err


class TestInputErrors:
    def test_unreadable_series(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--series", "/nonexistent/x.txt")
        assert code == 2 and "input error" in err

    def test_short_truncation(self, capsys):
        code, _, err = run_cli(
            capsys, "lp-test", "--series", "truncated-exp:3", "--d-max", "8"
        )
        assert code == 2

    @pytest.mark.parametrize("spec", ["1:5:0", "5:1:-1"])
    def test_m_list_step_below_one(self, capsys, spec):
        code, out, err = run_cli(
            capsys, "converge", "--series", "poly:1+x^2", "--poly", "x^2", "--m-list", spec
        )
        assert (code, out) == (2, "") and err.startswith("input error:")
        assert "m-list step must be >= 1" in err

    @pytest.mark.parametrize("spec, chunk", [("1,5:1", "5:1"), ("5:1", "5:1"), ("3:2:1", "3:2:1")])
    def test_m_list_range_running_backwards(self, capsys, spec, chunk):
        code, out, err = run_cli(
            capsys, "converge", "--series", "poly:1+x^2", "--poly", "x^2", "--m-list", spec
        )
        assert (code, out) == (2, "") and err.startswith("input error:")
        assert f"m-list range '{chunk}' runs backwards" in err

    def test_bad_precision(self, capsys):
        code, _, err = run_cli(capsys, "zeros", "--poly", "x^2+1", "--precision-bits", "16")
        assert code == 2

    @pytest.mark.parametrize("stages", ["0", "-2"])
    def test_stages_below_one_names_the_flag(self, capsys, stages):
        # argparse rejects it before the (here unreadable) series is read
        code, out, err = run_cli(
            capsys, "construct", "--series", "/nonexistent/x.txt", "--stages", stages
        )
        assert (code, out) == (2, "")
        assert f"argument --stages: must be >= 1, got {stages}" in err

    def test_usage_error_exit_two(self, capsys):
        assert main(["no-such-command"]) == 2


class TestUnrepresentableValues:
    """A zero denominator, or a value past the double range, is an input
    error naming the value: exit 2, no traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("limit-poly", "--beta", "1/0", "--p", "2", "--d", "3"),
            ("construct", "--series", "poly:1+x+x^2", "--stages", "1", "--gamma0", "1/0"),
            ("zeros", "--poly", "1/0x^2+1"),
            ("classify", "--series", "poly:1+1/0x"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_zero_denominator_inline(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("input error:")
        assert "'1/0' has a zero denominator" in err

    def test_zero_denominator_in_a_series_file(self, capsys, tmp_path):
        path = tmp_path / "phi.series"
        path.write_text("# zerodyn series 1\n1\n1/0\n")
        code, out, err = run_cli(capsys, "classify", "--series", str(path))
        assert (code, out) == (2, "") and err.startswith("input error:")
        assert "'1/0' has a zero denominator" in err

    def test_discrepancy_past_the_double_range(self, capsys):
        code, out, err = run_cli(
            capsys, "discrepancy", "--series", "poly:1+x+9x^2", "--d", "220", "--m", "3"
        )
        assert (code, out) == (2, "") and err.startswith("input error:")
        assert "the discrepancy is about 2^1150, past the double range" in err


# subcommand -> (the arguments of a run that gives no setting, the settings it declares)
BARE_RUNS = {
    "classify": (["--series", "poly:1+x"], ()),
    "lp-test": (["--series", "poly:1+x+x^2", "--d-max", "3"], ()),
    "apply": (["--series", "poly:1+x^2", "--poly", "x^3"], ()),
    "iterate": (["--series", "poly:1+x^2", "--poly", "x^3", "--m", "2"], ()),
    "zeros": (["--poly", "x^2+1"], ("precision_bits", "format")),
    "onset": (["--series", "poly:1+x-x^2", "--poly", "x^2-2x+2"], ("m_max", "format")),
    "converge": (
        ["--series", "poly:1-x^2", "--poly", "x^4", "--m-list", "1,2"],
        ("precision_bits", "format"),
    ),
    "discrepancy": (["--series", "poly:1-x^2", "--d", "4", "--m", "4"], ("precision_bits",)),
    "attractor": (
        ["--series", "poly:1+x^2", "--poly", "x^3", "--m-list", "1", "--epsilon", "0.5"],
        ("precision_bits", "format"),
    ),
    "limit-poly": (["--beta", "-1", "--p", "2", "--d", "4"], ()),
    "hermite": (["--d", "4"], ()),
    "jensen": (["--p", "3", "--q", "2", "--roots"], ("precision_bits",)),
    "construct": (["--series", "poly:1+x+x^2", "--stages", "1"], ("precision_bits", "d_cap")),
    "verify-construct": (
        ["--series", "poly:1+x+x^2", "--plan", "{plan}"], ("d_cap",)
    ),
}
# setting -> (flag, a valid value, its default)
SETTINGS = {
    "precision_bits": ("--precision-bits", "128", DEFAULT_PRECISION_BITS),
    "m_max": ("--m-max", "5", DEFAULT_M_MAX),
    "d_cap": ("--d-cap", "12", DEFAULT_D_CAP),
    "format": ("--format", "json", "json"),
}


def _subcommands():
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.fixture
def plan_file(tmp_path):
    plan = build_plan(PowerSeries.polynomial([1, 1, 1]), 1, d_cap=12)
    path = tmp_path / "plan.json"
    path.write_text(dump_json(plan_payload(plan)))
    return str(path)


class TestDeclaredOptions:
    """Each subcommand declares exactly the settings it reads."""

    def test_every_subcommand_is_listed(self):
        assert set(_subcommands()) == set(BARE_RUNS)

    @pytest.mark.parametrize("command", list(BARE_RUNS))
    def test_undeclared_setting_exits_before_any_work(self, capsys, monkeypatch, command):
        def fail(args):
            raise AssertionError(f"{command} ran with an undeclared setting")

        monkeypatch.setattr("zerodyn.cli._payload", fail)
        argv, declared = BARE_RUNS[command]
        for name in set(SETTINGS) - set(declared):
            flag, value, _default = SETTINGS[name]
            code, out, err = run_cli(capsys, command, *argv, flag, value)
            assert (code, out) == (2, "") and f"unrecognized arguments: {flag}" in err

    @pytest.mark.parametrize("command", list(BARE_RUNS))
    def test_bare_config_is_the_declared_defaults(self, capsys, plan_file, command):
        argv, declared = BARE_RUNS[command]
        doc = run_json(capsys, command, *(a.format(plan=plan_file) for a in argv))
        expected = {name: SETTINGS[name][2] for name in SETTINGS if name in declared}
        assert doc["config"] == {**expected, "output": None}


def _declared_flags(parser):
    """The option strings a subcommand parser declares, added or still stored."""
    pending = [flag for args, _kw in vars(parser).get("_pending", ()) for flag in args]
    return {*pending, *parser._option_string_actions}


def test_readme_settings_table_matches_the_parser():
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("## Command line", 1)[1].split("```", 1)[0]
    rows = [  # a cell's escaped \| is not a column break
        ln.replace("\\|", "/").split("|")[1:-1]
        for ln in section.splitlines()
        if ln.startswith("| `--")
    ]
    subcommands = _subcommands()
    documented = {}
    for setting, _what, names in rows:
        flag = setting.split("`")[1].split()[0]
        documented[flag] = {n for n in names.split("`")[1::2] if not n.startswith("-")}
    flags = {_SETTINGS[name][0] for name in _SETTINGS} - {"--output"}
    assert set(documented) == flags
    for flag, names in documented.items():
        declaring = {c for c, p in subcommands.items() if flag in _declared_flags(p)}
        assert names == declaring, flag


def test_readme_examples_parse():
    with open(README, encoding="utf-8") as fh:
        block = fh.read().split("## Command line", 1)[1].split("```", 2)[1]
    lines = [ln for ln in block.splitlines() if ln.startswith("zerodyn ")]
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
    assert {shlex.split(ln)[1] for ln in lines} == set(_subcommands())
