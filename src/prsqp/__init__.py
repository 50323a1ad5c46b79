"""Splitting-based SQP solver for composite problems min f(x) + g(Ax).

The package solves the equivalent constrained form min f(x) + g(y) subject to
Ax = y with an augmented-Lagrangian scheme: regularized Newton steps on the x-
and y-blocks, an extrapolation knob alpha on each step, backtracking line
searches measured in the step metric, and a dual update split into two pulses
(r before the y-step, s after). Diagnostics compute the curvature bounds,
step-size floor, and decrease margins that certify convergence, plus parameter
recipes for the ascent (ALDA) and descent (ALDD) dual regimes. A gradient
baseline and a batch CLI (``prsqp solve|sweep|check-params|gen-data``) round
out the experiment harness.
"""

from .alf import AlfGradient, AugmentedIterate, Iterate, PointEval, YPointEval, eval_alf, eval_merit_hat, grad_alf
from .baseline import GdParams, GdRecord, GdResult, gradient_descent
from .core import NotPositiveDefinite, make_rng, normal_sample, sparse_normal_sample, spectral_norm
from .diagnostics import (
    DiagnosticsReport,
    KktResidual,
    SpectralBounds,
    classify_regime,
    compute_deltas,
    compute_gamma,
    diagnostics_report,
    kkt_residual,
    spectral_bounds,
    suggest_params,
)
from .problems import (
    SCHEMA_VERSION,
    CompositeProblem,
    composite_gradient,
    composite_objective,
    forward_difference,
    hessian_pair,
    make_classification,
    make_huber_lasso,
    make_quadratic,
    problem_from_json,
    problem_to_json,
    quadratic_kkt_point,
    random_quadratic,
)
from .solver import (
    LineSearchFailed,
    NumericalError,
    SolveResult,
    SolveStatus,
    SolverParams,
    StepRecord,
    initial_state,
    iterate_once,
    run,
    validate_params,
)

__version__ = "0.1.0"

__all__ = [
    "AlfGradient",
    "AugmentedIterate",
    "CompositeProblem",
    "DiagnosticsReport",
    "GdParams",
    "GdRecord",
    "GdResult",
    "Iterate",
    "KktResidual",
    "LineSearchFailed",
    "NotPositiveDefinite",
    "NumericalError",
    "PointEval",
    "SCHEMA_VERSION",
    "SolveResult",
    "SolveStatus",
    "SolverParams",
    "SpectralBounds",
    "StepRecord",
    "YPointEval",
    "classify_regime",
    "composite_gradient",
    "composite_objective",
    "compute_deltas",
    "compute_gamma",
    "diagnostics_report",
    "eval_alf",
    "eval_merit_hat",
    "forward_difference",
    "grad_alf",
    "gradient_descent",
    "hessian_pair",
    "initial_state",
    "iterate_once",
    "kkt_residual",
    "make_classification",
    "make_huber_lasso",
    "make_quadratic",
    "make_rng",
    "normal_sample",
    "problem_from_json",
    "problem_to_json",
    "quadratic_kkt_point",
    "random_quadratic",
    "run",
    "sparse_normal_sample",
    "spectral_bounds",
    "spectral_norm",
    "suggest_params",
    "validate_params",
]
