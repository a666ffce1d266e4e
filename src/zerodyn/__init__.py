"""Polynomial zero dynamics under power-series differential operators.

Apply and iterate operators phi(D) = sum alpha_n D^n on polynomials,
classify the operator's terminal zero behavior, count nonreal zeros
exactly, check the rescaled iterates against their closed-form limits,
and build finite products whose iterates keep nonreal zeros inside
prescribed disks.
"""

from .errors import (
    AllZeroSeries,
    DegreeZero,
    GammaSearchExhausted,
    NoConvergence,
    NoNonrealZero,
    NonMonicInput,
    NotGeneralForm,
    PureExponential,
    TruncationTooShort,
    VerificationFailed,
    WitnessNotFound,
    ZeroConstantTerm,
    ZeroDilation,
    ZerodynError,
)
from .scalars import Point
from .series import (
    LPObstructionResult,
    OperatorClass,
    PowerSeries,
    classify,
    dilate_series,
    extend,
    factor_out_zero,
    normalize,
    polya_lp_test,
    truncated_power,
    truncated_product,
    turan_expression,
)
from .poly import (
    Poly,
    apply_operator,
    derivative,
    dilate,
    iterate_operator,
    monomial,
    rescale_iterate,
    translate,
)
from .limits import exp_dp_monomial, hermite, jensen_ml, jensen_of_series, ml_partial
from .roots import (
    Root,
    RootSet,
    ZeroCount,
    all_real_simple,
    count_nonreal,
    find_roots,
    roots_in_disk,
)
from .dynamics import (
    AttractorRecord,
    AttractorReport,
    ConvergenceReport,
    OnsetReport,
    attractor_experiment,
    convergence_experiment,
    onset_scan,
    operator_discrepancy,
    star_distance,
)
from .construct import (
    CounterexampleReport,
    StagePlan,
    build_partial_product,
    build_plan,
    choose_gamma,
    extend_plan,
    find_degree_witnesses,
    pick_targets,
    verify_counterexample,
)

__version__ = "0.1.0"
