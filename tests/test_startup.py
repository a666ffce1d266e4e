"""Startup guard and report-record semantics.

The CLI is a fresh process per job, so what ``import zerodyn.cli`` pulls
in is paid on every run.  The first tests keep the modules that only some
subcommands need (and the ``dataclasses`` machinery, which none needs)
off that path, and mpmath unexecuted until a floating route needs it;
the rest pin down the ``Record`` behaviour that replaced ``@dataclass``
on the report classes.
"""

import dataclasses
import json
import os
import subprocess
import sys
import types
from fractions import Fraction

import pytest

from zerodyn import Poly, PowerSeries
from zerodyn.cli import RunConfig
from zerodyn.construct import CounterexampleReport, StagePlan
from zerodyn.dynamics import AttractorRecord, AttractorReport, ConvergenceReport, OnsetReport
from zerodyn.records import Record
from zerodyn.roots import Root, RootSet, ZeroCount
from zerodyn.scalars import Point
from zerodyn.series import LPObstructionResult, OperatorClass

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PACKAGE = os.path.join(SRC, "zerodyn")
# mpmath's submodules exist only once its package code has run
KEPT_OFF = ("dataclasses", "inspect", "statistics", "csv", "mpmath.libmp", "mpmath.ctx_mp")


def _fresh(probe, *argv):
    """Last stdout line of ``probe`` run in a fresh interpreter, as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_import_leaves_out_unused_stdlib_modules():
    loaded = set(_fresh(
        "import json, sys; before = set(sys.modules); import zerodyn.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    ))
    assert "zerodyn.cli" in loaded
    assert loaded.isdisjoint(KEPT_OFF), sorted(loaded & set(KEPT_OFF))


CLI_PROBE = (
    "import json, sys, types; import zerodyn.cli, zerodyn.scalars as s; "
    "rc = zerodyn.cli.main(sys.argv[1:] + ['--output', '/dev/null']); "
    "print(json.dumps([rc, 'mpmath.ctx_mp' in sys.modules, "
    "s.mp is sys.modules['mpmath'] and type(s.mp) is types.ModuleType]))"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["onset", "--series", "poly:1+x-x^2", "--poly", "x^2-2x+2", "--m-max", "20"],
        ["lp-test", "--series", "poly:1+x+x^2", "--d-max", "5"],
        ["iterate", "--series", "poly:1+x^2", "--poly", "x^3", "--m", "5",
         "--op-count", "nonreal"],
        # above degree 64 the count is exact too, by Descartes bisection
        pytest.param(
            ["iterate", "--series", "poly:1+x^2", "--poly", "x^70-x+1", "--m", "2",
             "--op-count", "nonreal"],
            id="iterate-degree-70",
        ),
        ["discrepancy", "--series", "poly:1-x^2", "--d", "4", "--m", "100"],
        ["converge", "--series", "poly:1-x^2", "--poly", "x^4", "--m-list", "1,4,9"],
        # rounding an irrational m^(1/p), certifying roots and printing them
        # run on integers too
        pytest.param(
            ["converge", "--series", "poly:1-x^2", "--poly", "x^4", "--m-list", "1:5"],
            id="converge-irrational",
        ),
        pytest.param(
            ["discrepancy", "--series", "poly:1-x^2", "--d", "4", "--m", "10"],
            id="discrepancy-irrational",
        ),
        ["zeros", "--poly", "x^2+2x+2"],
        ["jensen", "--p", "2", "--q", "6", "--roots"],
        ["attractor", "--series", "poly:1-x^2", "--poly", "x^3", "--m-list", "1,2",
         "--epsilon", "0.1"],
    ],
    ids=lambda argv: argv[0],
)
def test_exact_subcommands_leave_mpmath_unexecuted(argv):
    assert _fresh(CLI_PROBE, *argv)[:2] == [0, False]


def test_construct_and_verify_construct_leave_mpmath_unexecuted(tmp_path):
    plan = str(tmp_path / "plan.json")
    common = ["--series", "poly:1+x+x^2", "--d-cap", "8"]
    construct = ["construct", *common, "--stages", "2", "--plan-out", plan]
    assert _fresh(CLI_PROBE, *construct)[:2] == [0, False]
    assert _fresh(CLI_PROBE, "verify-construct", *common, "--plan", plan)[:2] == [0, False]


def test_floating_subcommand_leaves_plain_mpmath_module():
    # 1 and 1 + 2^-60 are one double, so the root finder's fallback sweep runs
    eps = Fraction(1, 2**60)
    f = Poly([-1, 1]) * Poly([-1 - eps, 1]) * Poly([2, 0, 1])
    assert _fresh(CLI_PROBE, "zeros", "--poly", str(f)) == [0, True, True]


def test_json_report_leaves_csv_unimported():
    probe = (
        "import json, sys, zerodyn.cli; "
        "rc = zerodyn.cli.main(sys.argv[1:] + ['--output', '/dev/null']); "
        "print(json.dumps([rc, 'csv' in sys.modules]))"
    )
    argv = ["onset", "--series", "poly:1+x-x^2", "--poly", "x^2-2x+2", "--m-max", "20"]
    assert _fresh(probe, *argv) == [0, False]


def test_mpmath_imported_first_is_the_same_module():
    assert _fresh(
        "import json, types, mpmath, zerodyn.scalars as s; "
        "print(json.dumps([s.mp is mpmath, type(s.mp) is types.ModuleType]))"
    ) == [True, True]


def _package_lines_with(*needles):
    hits = []
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                hits += [
                    f"{name}:{i}" for i, line in enumerate(fh, 1)
                    if any(n in line for n in needles)
                ]
    return hits


def test_package_source_does_not_mention_dataclass():
    assert _package_lines_with("dataclass") == []


def test_only_scalars_binds_mpmath():
    hits = _package_lines_with("import mpmath", "from mpmath")
    assert all(h.startswith("scalars.py:") for h in hits), hits


def test_mpmath_is_used_only_where_values_are_irrational():
    # the fallback root rungs; everything else is exact
    hits = _package_lines_with("mp.", "to_mp")
    allowed = ("scalars.py", "roots.py")
    assert hits and all(h.split(":")[0] in allowed for h in hits), hits


def _instances():
    series = PowerSeries([1, 1, Fraction(1, 2)])
    root = Root(Point(Fraction(1), Fraction(2)), 1, 1e-80)
    record = AttractorRecord(1, 0.25, 0.5, True, None)
    top = Point(Fraction(0), Fraction(1))
    plan = StagePlan((3, 5), {(1, 1): top}, {(1, 1): Fraction(1, 2)}, (Fraction(1, 4),))
    return [
        RunConfig(256, 200, 40, "json", None),
        plan,
        CounterexampleReport(plan, {(1, 1): top}, {1: 2}, (Fraction(1),), True),
        OperatorClass("General", series, p=2, alpha=Fraction(1), beta=Fraction(-1, 2)),
        LPObstructionResult(True, 3, 10, (0, 0, 2)),
        OnsetReport("AllRealSimple", 3, 10, ((1, 2), (2, 0))),
        ConvergenceReport(
            2, Fraction(1), Fraction(-1, 2), ((1, 0.5),), -0.5, False, Poly([1, 0, 1])
        ),
        record,
        AttractorReport(2, Fraction(1), Fraction(-1), top, 0.5, (record,)),
        root,
        RootSet((root,), 1, 256),
        ZeroCount(4, 2, 2, "exact", True),
    ]


def test_every_report_class_is_a_record():
    assert len({type(r) for r in _instances()}) == 12
    assert all(isinstance(r, Record) for r in _instances())


@pytest.mark.parametrize("rec", _instances(), ids=lambda r: type(r).__name__)
def test_repr_matches_the_dataclass_form(rec):
    cls = type(rec)
    oracle = dataclasses.make_dataclass(cls.__name__, cls._fields)
    assert repr(rec) == repr(oracle(*rec._astuple()))


def test_fields_follow_annotation_order_with_defaults():
    assert StagePlan._fields == (
        "degrees", "targets", "radii", "gammas", "coefficient_bound_ok", "precision_bits",
    )
    plan = StagePlan((3,), {}, {})
    assert (plan.gammas, plan.coefficient_bound_ok, plan.precision_bits) == ((), (), 256)
    assert plan.stages_fixed == 0


def test_frozen_assignment_raises():
    rec = ZeroCount(4, 2, 2, "exact", True)
    with pytest.raises(AttributeError):
        rec.total = 5
    with pytest.raises(AttributeError):
        rec.extra = 1
    with pytest.raises(AttributeError):
        del rec.total
    assert rec.total == 4


def test_mutable_records_allow_assignment():
    plan = StagePlan((3,), {}, {})
    plan.gammas = (Fraction(1, 2),)
    assert plan.stages_fixed == 1


def test_equality_requires_the_same_class():
    a = AttractorRecord(1, 0.25, 0.5, True, None)
    assert a == AttractorRecord(1, 0.25, 0.5, True, None)
    assert a != AttractorRecord(2, 0.25, 0.5, True, None)
    assert a != (1, 0.25, 0.5, True, None)

    class Twin(Record):
        m: int
        max_scaled_star_distance: float
        containment_epsilon_needed: float
        contained: bool
        all_simple: object

    assert a != Twin(1, 0.25, 0.5, True, None)


def test_frozen_records_hash_and_mutable_ones_do_not():
    a = ZeroCount(4, 2, 2, "exact", True)
    assert hash(a) == hash(ZeroCount(4, 2, 2, "exact", True))
    assert hash(a) == hash((4, 2, 2, "exact", True))
    assert len({a, ZeroCount(4, 2, 2, "exact", True)}) == 1
    for rec in (StagePlan((3,), {}, {}), RootSet((), 1, 256)):
        with pytest.raises(TypeError):
            hash(rec)


def test_list_defaults_are_not_shared():
    a, b = RootSet((), 1, 256), RootSet((), 1, 256)
    a.diagnostics.append("tie")
    assert b.diagnostics == [] and RootSet.diagnostics == []


def test_positional_keyword_and_missing_fields():
    one = Point(Fraction(1), Fraction(0))
    pos = Root(one, 2, 0.0)
    kw = Root(residual=0.0, location=one, multiplicity=2)
    assert pos == kw and repr(pos) == repr(kw)
    assert Root(one, 2, residual=0.0) == pos
    with pytest.raises(TypeError):
        Root(one, 2)
    with pytest.raises(TypeError):
        Root(one, 2, 0.0, 1)
    with pytest.raises(TypeError):
        Root(one, 2, 0.0, colour="red")
    with pytest.raises(TypeError):
        Root(one, 2, 0.0, multiplicity=3)


def test_run_config_dump_keeps_field_order():
    cfg = RunConfig(256, 200, 40, "json", None)
    assert cfg._asdict() == dataclasses.asdict(
        dataclasses.make_dataclass("RunConfig", RunConfig._fields)(*cfg._astuple())
    )
    assert list(cfg._asdict()) == [
        "precision_bits", "m_max", "d_cap", "out_format", "output",
    ]
