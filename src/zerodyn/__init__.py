"""Polynomial zero dynamics under power-series differential operators.

Apply and iterate operators phi(D) = sum alpha_n D^n on polynomials,
classify the operator's terminal zero behavior, count nonreal zeros
exactly, check the rescaled iterates against their closed-form limits,
and build finite products whose iterates keep nonreal zeros inside
prescribed disks.

The submodules are lazy (``scalars._lazy_import``): ``import zerodyn``
registers each one, and its code runs on the first attribute access, so
a CLI job executes only the modules its subcommand uses.  The public
names below and the submodules resolve as attributes of the package on
first use (PEP 562).
"""

import sys

from .scalars import _lazy_import

_EXPORTS = {
    "errors": (
        "AllZeroSeries",
        "DegreeZero",
        "GammaSearchExhausted",
        "NoConvergence",
        "NoNonrealZero",
        "NonMonicInput",
        "NotGeneralForm",
        "PureExponential",
        "TruncationTooShort",
        "VerificationFailed",
        "WitnessNotFound",
        "ZeroConstantTerm",
        "ZeroDilation",
        "ZerodynError",
    ),
    "scalars": ("Point",),
    "series": (
        "LPObstructionResult",
        "OperatorClass",
        "PowerSeries",
        "classify",
        "dilate_series",
        "extend",
        "factor_out_zero",
        "normalize",
        "polya_lp_test",
        "truncated_power",
        "truncated_product",
        "turan_expression",
    ),
    "poly": (
        "Poly",
        "apply_operator",
        "derivative",
        "dilate",
        "iterate_operator",
        "monomial",
        "rescale_iterate",
        "translate",
    ),
    "limits": ("exp_dp_monomial", "hermite", "jensen_ml", "jensen_of_series", "ml_partial"),
    "exact": ("ZeroCount", "all_real_simple", "count_nonreal"),
    "roots": ("Root", "RootSet", "find_roots", "roots_in_disk"),
    "dynamics": (
        "AttractorRecord",
        "AttractorReport",
        "ConvergenceReport",
        "OnsetReport",
        "attractor_experiment",
        "convergence_experiment",
        "onset_scan",
        "operator_discrepancy",
        "star_distance",
    ),
    "construct": (
        "CounterexampleReport",
        "StagePlan",
        "build_partial_product",
        "build_plan",
        "choose_gamma",
        "extend_plan",
        "find_degree_witnesses",
        "pick_targets",
        "verify_counterexample",
    ),
}
# ``cli`` is left to the import system, so ``python -m zerodyn.cli`` runs it once
_SUBMODULES = ("records", *_EXPORTS, "formats")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"

for _name in _SUBMODULES:
    _lazy_import(f"{__name__}.{_name}")
del _name


def __getattr__(name):
    if name in _SUBMODULES:
        value = sys.modules[f"{__name__}.{name}"]
    elif name in _HOME:
        value = getattr(sys.modules[f"{__name__}.{_HOME[name]}"], name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *_HOME})
