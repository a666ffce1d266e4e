"""Startup guard, the lazy package, and report-record semantics.

The CLI is a fresh process per job, so whatever ``import zerodyn.cli``
and the subcommand execute is paid on every run: with no bytecode cache,
each executed module is compiled too.  The first tests check that the
package's submodules stay unexecuted until a job uses them (so the
exact-route subcommands never execute the root finder, the construction
or the experiments they do not call), that ``main`` freezes the start-up
heap, that ``dataclasses`` and its relatives stay off that path, and
that no job imports mpmath, and that the floating jobs complete with
mpmath blocked.  Then the
package API: every public name and submodule still resolves from
``zerodyn``.  The rest pin down the ``Record`` behaviour that replaced
``@dataclass`` on the report classes.
"""

import dataclasses
import functools
import gc
import importlib
import json
import os
import subprocess
import sys
import types
from fractions import Fraction

import pytest

import zerodyn
from zerodyn import Poly, PowerSeries, cli
from zerodyn.construct import CounterexampleReport, StagePlan
from zerodyn.dynamics import AttractorRecord, AttractorReport, ConvergenceReport, OnsetReport
from zerodyn.records import Record
from zerodyn.roots import Root, RootSet, ZeroCount
from zerodyn.scalars import Point
from zerodyn.series import LPObstructionResult, OperatorClass

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PACKAGE = os.path.join(SRC, "zerodyn")
KEPT_OFF = ("dataclasses", "inspect", "statistics", "csv", "mpmath")


@functools.lru_cache(maxsize=None)
def _fresh(probe, *argv):
    """Last stdout line of ``probe`` run in a fresh interpreter, as JSON;
    run once per (probe, argv), so tests of one job share its run."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    return json.loads(out.stdout.splitlines()[-1])


EXECUTED = (
    "sorted(n.split('.')[1] for n, m in sys.modules.items() "
    "if n.startswith('zerodyn.') and type(m) is types.ModuleType)"
)
# [modules the import adds to sys.modules, package modules it executes]
IMPORT_PROBE = (
    "import json, sys, types; before = set(sys.modules); import zerodyn.cli; "
    f"print(json.dumps([sorted(set(sys.modules) - before), {EXECUTED}]))"
)


def test_cli_import_leaves_out_unused_stdlib_modules():
    loaded = set(_fresh(IMPORT_PROBE)[0])
    assert "zerodyn.cli" in loaded
    assert loaded.isdisjoint(KEPT_OFF), sorted(loaded & set(KEPT_OFF))


def test_cli_import_executes_only_what_every_job_needs():
    assert _fresh(IMPORT_PROBE)[1] == ["cli", "errors", "records", "scalars"]


# every name the package exported when it imported its submodules eagerly,
# by the module it came from
PUBLIC = {
    "errors": (
        "AllZeroSeries", "DegreeZero", "GammaSearchExhausted", "NoConvergence",
        "NoNonrealZero", "NonMonicInput", "NotGeneralForm", "PureExponential",
        "TruncationTooShort", "VerificationFailed", "WitnessNotFound",
        "ZeroConstantTerm", "ZeroDilation", "ZerodynError",
    ),
    "scalars": ("Point",),
    "series": (
        "LPObstructionResult", "OperatorClass", "PowerSeries", "classify",
        "dilate_series", "factor_out_zero", "normalize", "polya_lp_test",
        "truncated_power", "truncated_product", "turan_expression",
    ),
    "poly": (
        "Poly", "apply_operator", "derivative", "dilate", "iterate_operator",
        "monomial", "rescale_iterate", "translate",
    ),
    "limits": ("exp_dp_monomial", "hermite", "jensen_ml", "jensen_of_series", "ml_partial"),
    "roots": (
        "Root", "RootSet", "ZeroCount", "all_real_simple", "count_nonreal",
        "find_roots", "roots_in_disk",
    ),
    "dynamics": (
        "AttractorRecord", "AttractorReport", "ConvergenceReport", "OnsetReport",
        "attractor_experiment", "convergence_experiment", "onset_scan",
        "operator_discrepancy", "star_distance",
    ),
    "construct": (
        "CounterexampleReport", "StagePlan", "build_partial_product", "build_plan",
        "extend_plan", "find_degree_witnesses", "pick_targets", "verify_counterexample",
    ),
}
SUBMODULES = (
    "construct", "dynamics", "errors", "exact", "formats", "limits", "poly",
    "records", "roots", "scalars", "series",
)


def test_public_names_are_the_objects_of_their_modules():
    listed = dir(zerodyn)
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"zerodyn.{module}")
        for name in names:
            assert getattr(zerodyn, name) is getattr(home, name), name
            assert name in listed and name in zerodyn.__all__, name
    assert zerodyn.__version__ == "0.1.0"


def test_no_public_function_takes_a_classification_and_a_series():
    # an OperatorClass carries its normalized series (``normalized_from``):
    # a function given both could classify one series and iterate another
    import inspect

    both, functions = [], 0
    for name in zerodyn.__all__:
        fn = getattr(zerodyn, name)
        if inspect.isfunction(fn):
            functions += 1
            params = inspect.signature(fn, eval_str=True).parameters.values()
            if {OperatorClass, PowerSeries} <= {p.annotation for p in params}:
                both.append(name)
    assert functions > 30 and both == []


def test_submodules_resolve_as_package_attributes():
    # in a fresh interpreter, before any of them has been imported by name
    probe = (
        "import json, sys, zerodyn; "
        "print(json.dumps([getattr(zerodyn, n) is sys.modules['zerodyn.' + n] "
        "and n in dir(zerodyn) for n in sys.argv[1:]]))"
    )
    assert _fresh(probe, *SUBMODULES) == [True] * len(SUBMODULES)
    assert zerodyn.construct.build_plan is importlib.import_module("zerodyn.construct").build_plan


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        zerodyn.no_such_name  # noqa: B018


# [exit code, mpmath imported, start-up heap frozen, package modules executed]
CLI_PROBE = (
    "import gc, json, sys, types; import zerodyn.cli; "
    "rc = zerodyn.cli.main(sys.argv[1:] + ['--output', '/dev/null']); "
    "print(json.dumps([rc, 'mpmath' in sys.modules, "
    f"gc.get_freeze_count() > 0, {EXECUTED}]))"
)
# [exit code, integer fallback sweeps run], with mpmath unimportable
BLOCKED_PROBE = (
    "import json, sys; sys.modules['mpmath'] = None; "
    "import zerodyn.cli, zerodyn.roots as r; sweeps = []; sweep = r._fixed_sweep; "
    "r._fixed_sweep = lambda *a: sweeps.append(a[3]) or sweep(*a); "
    "rc = zerodyn.cli.main(sys.argv[1:] + ['--output', '/dev/null']); "
    "print(json.dumps([rc, len(sweeps)]))"
)
SUBCOMMANDS = [
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
]
# per subcommand, package modules its job must leave unexecuted
UNEXECUTED = {
    "onset": {"roots", "construct"},
    "lp-test": {"roots", "construct", "dynamics"},
    "iterate": {"roots", "construct", "dynamics"},
    "converge": {"roots", "construct"},
    "discrepancy": {"roots", "construct"},
    "zeros": {"dynamics", "construct"},
    "jensen": {"dynamics", "construct"},
    "attractor": {"construct"},
    "construct": {"dynamics"},
    "verify-construct": {"dynamics"},
}


@pytest.fixture(scope="module")
def construct_runs(tmp_path_factory):
    """CLI_PROBE results of a construct job and of verify-construct on its plan."""
    plan = str(tmp_path_factory.mktemp("construct") / "plan.json")
    common = ["--series", "poly:1+x+x^2", "--d-cap", "8"]
    return [
        _fresh(CLI_PROBE, "construct", *common, "--stages", "2", "--plan-out", plan),
        _fresh(CLI_PROBE, "verify-construct", *common, "--plan", plan),
    ]


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
def test_exact_subcommands_leave_mpmath_unexecuted(argv):
    assert _fresh(CLI_PROBE, *argv)[:2] == [0, False]


def test_construct_and_verify_construct_leave_mpmath_unexecuted(construct_runs):
    for result in construct_runs:
        assert result[:2] == [0, False]


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
def test_subcommand_executes_only_the_modules_it_uses(argv):
    rc, _, frozen, executed = _fresh(CLI_PROBE, *argv)
    assert (rc, frozen) == (0, True)
    assert "cli" in executed and UNEXECUTED[argv[0]].isdisjoint(executed), executed


def test_construct_and_verify_construct_leave_dynamics_unexecuted(construct_runs):
    for rc, _, frozen, executed in construct_runs:
        assert (rc, frozen) == (0, True)
        assert "construct" in executed and "dynamics" not in executed, executed


def test_main_freezes_once_without_reading_the_freeze_count(monkeypatch, capsys):
    # gc.get_freeze_count() walks the whole permanent generation per call
    def walk():
        raise AssertionError("main read gc.get_freeze_count()")

    freezes = []
    monkeypatch.setattr(gc, "get_freeze_count", walk)
    monkeypatch.setattr(gc, "freeze", lambda: freezes.append(1))
    monkeypatch.setattr(cli, "_heap_frozen", False)
    argv = ["classify", "--series", "poly:1+x+x^2"]
    assert [cli.main(argv), cli.main(argv)] == [0, 0]
    assert freezes == [1]


def test_subcommands_run_with_mpmath_blocked(tmp_path):
    # 1 and 1 + 2^-60 are one double, so the root finder's fallback sweep runs
    eps = Fraction(1, 2**60)
    f = Poly([-1, 1]) * Poly([-1 - eps, 1]) * Poly([2, 0, 1])
    assert _fresh(BLOCKED_PROBE, "zeros", "--poly", str(f)) == [0, 1]
    attractor = SUBCOMMANDS[-1]
    assert attractor[0] == "attractor" and _fresh(BLOCKED_PROBE, *attractor)[0] == 0
    construct = ["construct", "--series", "poly:1+x+x^2", "--d-cap", "8", "--stages", "2",
                 "--plan-out", str(tmp_path / "plan.json")]
    assert _fresh(BLOCKED_PROBE, *construct)[0] == 0


def test_json_report_leaves_csv_unimported():
    probe = (
        "import json, sys, zerodyn.cli; "
        "rc = zerodyn.cli.main(sys.argv[1:] + ['--output', '/dev/null']); "
        "print(json.dumps([rc, 'csv' in sys.modules]))"
    )
    argv = ["onset", "--series", "poly:1+x-x^2", "--poly", "x^2-2x+2", "--m-max", "20"]
    assert _fresh(probe, *argv) == [0, False]


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


def test_no_module_imports_mpmath():
    # an import statement, or a name handed to an import helper
    needles = ("import mpmath", "from mpmath", '"mpmath"', "'mpmath'")
    assert _package_lines_with(*needles) == []


def _instances():
    series = PowerSeries([1, 1, Fraction(1, 2)])
    root = Root(Point(Fraction(1), Fraction(2)), 1, 1e-80)
    record = AttractorRecord(1, 0.25, 0.5, True, None)
    top = Point(Fraction(0), Fraction(1))
    plan = StagePlan(
        (3, 5), (((1, 1), top),), (((1, 1), Fraction(1, 2)),), (Fraction(1, 4),)
    )
    return [
        plan,
        CounterexampleReport(plan, (((1, 1), top),), ((1, 2),), (Fraction(1),), True),
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
    assert len({type(r) for r in _instances()}) == 11
    assert all(isinstance(r, Record) for r in _instances())


@pytest.mark.parametrize("rec", _instances(), ids=lambda r: type(r).__name__)
def test_repr_matches_the_dataclass_form(rec):
    cls = type(rec)
    oracle = dataclasses.make_dataclass(cls.__name__, cls._fields)
    assert repr(rec) == repr(oracle(*rec._astuple()))


def test_fields_follow_annotation_order_with_defaults():
    assert StagePlan._fields == (
        "degrees", "targets", "radii", "gammas", "precision_bits",
    )
    plan = StagePlan((3,), (), ())
    assert (plan.gammas, plan.precision_bits) == ((), 256)
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


def test_replace_returns_a_changed_copy():
    plan = StagePlan((3,), (), ())
    fixed = plan._replace(gammas=(Fraction(1, 2),))
    assert (plan.stages_fixed, fixed.stages_fixed) == (0, 1)
    assert fixed == StagePlan((3,), (), (), (Fraction(1, 2),))
    with pytest.raises(TypeError):
        plan._replace(colour="red")


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


def test_every_exported_record_is_frozen():
    exported = [getattr(zerodyn, n) for n in zerodyn.__all__]
    classes = [c for c in exported if isinstance(c, type) and issubclass(c, Record)]
    assert {StagePlan, RootSet, ZeroCount, Point} <= set(classes)
    for cls in classes:
        rec = cls(*range(len(cls._fields)))
        assert hash(rec) == hash(tuple(range(len(cls._fields))))
        for name in cls._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(rec, name, -1)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        assert rec._astuple() == tuple(range(len(cls._fields)))
    with pytest.raises(TypeError):
        class Loose(Record, frozen=False):
            x: int


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


def test_record_dump_keeps_field_order():
    count = ZeroCount(4, 2, 2, "exact", True)
    assert count._asdict() == dataclasses.asdict(
        dataclasses.make_dataclass("ZeroCount", ZeroCount._fields)(*count._astuple())
    )
    assert list(count._asdict()) == [
        "total", "real_count", "nonreal_count", "method", "squarefree",
    ]
