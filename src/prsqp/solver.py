"""Hybrid-accelerated proximal splitting with SQP subproblems.

One iteration, starting from ``w_k = (x_k, y_k, lam_k)`` with current Hessian
models ``H_x, H_y``:

1. x block: solve the quadratic model of ``L_beta`` in the metric
   ``Hcal_x = H_x + beta A^T A + ell I``, extrapolate by ``alpha``, Armijo
   backtrack along ``d_x = (1 + alpha)(x_tilde - x_k)``. A Hessian model is
   an ``(n, n)`` matrix or, for a diagonal Hessian, its ``(n,)`` diagonal
   ``h``; the shape is the declaration, and a matrix is never scanned for
   structure. For a diagonal x-model and a wide ``A`` (``n2 < n1``), while
   ``D = h + ell > 0``, the metric is the diagonal ``D`` plus the rank-``n2``
   term ``beta A^T A``: only the ``n2 x n2`` capacitance matrix
   ``I / beta + A D^-1 A^T`` is factored, and ``d^T Hcal_x d`` is
   ``d . (D d) + beta ||A d||^2``. Where ``h`` is zero outside fewer than
   ``n1/2`` coordinates, the capacitance matrix is the matrix of ``h = 0``,
   built from the problem's ``A A^T`` (``P.AAt``), plus a correction in those
   coordinates' columns of ``A`` (see :func:`_capacitance`). Otherwise (``D``
   not positive, ``n2 >= n1`` or a matrix model) the dense ``Hcal_x`` is
   formed and factored, so ``ell`` is doubled exactly where the dense metric
   needs it (the structured one is positive definite whenever it is used).
   ``A^T A`` is formed for the first dense ``Hcal_x``. Each metric is built
   from its model, ``ell`` and ``beta`` alone.
2. First dual update ``lam_{k+1/2} = lam_k - r beta (A x_{k+1} - y_k)``.
3. y block at ``(x_{k+1}, lam_{k+1/2})`` in the metric
   ``Hcal_y = H_y + (beta + sigma) I``; extrapolate, backtrack. For a
   y-model given as its diagonal ``h``, ``Hcal_y`` is kept as the vector
   ``D = h + beta + sigma``, which is never factored: it is rejected (and
   ``sigma`` doubled) where some ``D_i <= 0``, exactly where a Cholesky
   factorization of the matrix would fail, and a solve multiplies by
   ``1 / sqrt(D)`` twice, as the two triangular solves with its factor do.
4. Second dual update ``lam_{k+1} = lam_{k+1/2} - s beta (A x_{k+1} - y_{k+1})``.
5. Stop when the relative sup-norm step over ``(x, y, lam)`` drops to
   ``tol_step`` and the first-order residual (the larger of the split KKT
   residual and the composite residual ``||grad f(x) + A^T grad g(A x)||``)
   is at most ``tol_kkt``.
6. Refresh ``(H_x, H_y)`` at the new point and factor both metrics, doubling
   ``ell`` / ``sigma`` until each admits a Cholesky factorization (factored
   through LAPACK ``potrf``, solved through ``potrs``; :mod:`prsqp.core`
   binds both, in :func:`~prsqp.core.cholesky_spd` and
   :func:`~prsqp.core.cholesky_solve`); a non-finite model, or a metric
   indefinite after 60 doublings (or at a weight whose double passes float
   range), raises an error naming its block. The factored metrics, each
   holding its weight, go into the new :class:`SolverState`, whose block
   steps solve in them; a block's metric is kept, not rebuilt, while its
   refreshed model is exactly equal to the previous one.
   :func:`initial_state` factors the metrics at ``w_0`` in the same way, so
   no step repairs one.

The dual steps ``r, s`` may each take either sign (ascent or descent
flavors), with ``r + s != 0``; but at ``r + s < 0`` the iteration map's
Jacobian has a real eigenvalue above 1 at a strict local minimum, so that
point repels the iterates (proved in 1-D, measured beyond: README, Known
limitations). The diagnostics module computes the decrease margins that
certify monotonicity of the merit function for a given choice.

Each x-point is evaluated once, through its :class:`~prsqp.alf.PointEval`,
and so is each y-point, through its :class:`~prsqp.alf.YPointEval`. An x
trial evaluates ``A x`` and ``f`` at its own point. The accepted trial is
``x_{k+1}``, computed from the same operands, and its record serves both dual
updates, the y step, the y search (whose trials evaluate only ``g`` and the
residual), ``L_beta(w_{k+1})``, the first-order residuals and the objective,
which evaluates ``grad f(x_{k+1})``. Likewise the accepted y trial is
``y_{k+1}``: its ``g`` enters ``L_beta(w_{k+1})``, and the first-order
residuals evaluate its ``grad g``. Both records go into the new state with
``L_beta(w_{k+1})``, so the next iteration's x-gradient evaluates no ``A x``,
``grad f`` or ``grad g``, its x search and its y search's ``L_beta`` no
``g(y_k)``, and its y step no ``grad g``. So per iteration ``g`` is evaluated
at each y trial and at ``A x_{k+1}`` (for the objective), and ``grad g`` at
``y_{k+1}`` and at ``A x_{k+1}`` (for the composite residual). A state's
arrays are read-only, so no write reaches the records or factors it holds.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Callable, List, NamedTuple, Optional

import numpy as np

from .alf import AugmentedIterate, Iterate, PointEval, YPointEval, _alf_value, eval_alf, eval_merit_hat, grad_alf
from .core import NotPositiveDefinite, cholesky_solve, cholesky_spd, spectral_norm
from .problems import KktResidual, _max_or_nan, _past_float_range, composite_objective, hessian_pair, kkt_residual


class LineSearchFailed(RuntimeError):
    """Armijo backtracking exhausted its 60 shrinks without an acceptable step.

    Only the full step ``t = 1`` is tested with a float slack, so a search
    along an uphill direction fails rather than accepting a tiny ``t``.
    """


class NumericalError(ArithmeticError):
    """The iteration produced non-finite values or an unrepairable metric."""


class SolveStatus(str, Enum):
    CONVERGED = "Converged"
    ITER_LIMIT = "IterLimit"
    LINE_SEARCH_FAILED = "LineSearchFailed"
    NUMERICAL_ERROR = "NumericalError"


_RHO, _NU = 0.4, 0.6  # the line search's Armijo rule: the largest t = _NU^i lowering L_beta by _RHO t d^T Hcal d
_MAX_BACKTRACKS = 60  # shrinks of an Armijo step before the search fails


def _floor_factor(alpha):
    # c = 1/(1 + alpha) - rho, the factor of the step floor gamma
    return 1.0 / (1.0 + alpha) - _RHO


def _outside_range(alpha):
    # "" inside the acceleration range of the theory, c > 0, on which gamma
    # and the recipes are built; else the message that says so. In exact
    # arithmetic c > 0 is alpha < 1/rho - 1 = 1.5, but the two forms round
    # apart at the boundary, so every site tests and words this one.
    c = _floor_factor(alpha)
    if c > 0.0:
        return ""
    return f"alpha = {alpha} is outside the supported range: 1/(1 + alpha) - rho = {c} must be positive"


@dataclass(frozen=True)
class SolverParams:
    """Algorithm parameters, fixed for a run; ranges are enforced at construction.

    ``alpha`` must exceed -1 and satisfy ``1/(1 + alpha) - rho > 0`` at the
    line search's ``rho = 0.4`` (``alpha < 1.5``, tested in the first form)
    unless ``relaxed_alpha`` is set, in which case only ``alpha > -1`` is
    required and the step floor of the theory does not hold. ``r`` and ``s``
    are the two dual step scales (positive = ascent, negative = descent) with
    ``r + s != 0``. ``tol_step`` (relative) and ``tol_kkt`` (absolute) are the
    two tolerances that must both hold for :func:`run` to report Converged. A
    set is frozen: build a changed one with ``dataclasses.replace``, which
    validates it anew.
    """

    alpha: float = 0.0
    beta: float = 1.0
    ell: float = 5.0
    sigma: float = 10.0
    r: float = 0.1
    s: float = 1.0
    max_iter: int = 10_000
    tol_step: float = 1e-4
    tol_kkt: float = 1e-2
    relaxed_alpha: bool = False

    def __post_init__(self):
        _raise_violations(validate_params(self))


def validate_params(params):
    """Range violations of a parameter set, as human-readable strings.

    ``params`` is a :class:`SolverParams` or any object with the same
    attributes; a :class:`SolverParams` always gives ``[]``, as its
    constructor raises on the violations listed here. Unless the set's
    ``relaxed_alpha`` is true, the upper acceleration bound
    ``1/(1 + alpha) - rho > 0`` (``alpha < 1.5`` at ``rho = 0.4``) is enforced.
    """
    p = params
    out = _field_violations(p, SolverParams)
    # the rules below do float arithmetic on their fields, so a field that is
    # no _real, or one past float range (both flagged above), enters none of them
    names = ("alpha", "beta", "ell", "sigma", "r", "s")
    ok = {name for name in names if _real(v := getattr(p, name)) and not _past_float_range(v)}
    alpha_ok = "alpha" in ok and -1.0 < p.alpha < math.inf
    if "alpha" in ok and not alpha_ok:
        out.append(f"alpha must be finite and exceed -1, got {p.alpha}")
    relaxed = p.relaxed_alpha
    if not isinstance(relaxed, (bool, np.bool_)):
        # a string such as "false" is truthy; it must not relax the range
        out.append(f"relaxed_alpha must be a boolean, got {relaxed!r}")
        relaxed = False
    if not relaxed and alpha_ok and (outside := _outside_range(p.alpha)):
        out.append(f"{outside} (set relaxed_alpha to override)")
    for name in ("beta", "ell", "sigma"):
        if name in ok and not 0.0 < getattr(p, name) < math.inf:
            out.append(f"{name} must be positive and finite, got {getattr(p, name)}")
    for name in ("r", "s"):
        if name in ok and not math.isfinite(getattr(p, name)):
            out.append(f"{name} must be finite, got {getattr(p, name)}")
    if {"r", "s"} <= ok and p.r + p.s == 0.0:
        out.append(f"r + s must be nonzero, got r = {p.r}, s = {p.s}")
    return out


def _real(value):
    # a number the range rules can compare: a bool is flagged as no weight but still compared
    return isinstance(value, (numbers.Real, np.bool_))


def _field_violations(p, cls):
    # the checks SolverParams and GdParams share, over the fields of cls read
    # from p: a float field is a real, not a bool (a JSON true is no weight of
    # 1), that a float can hold; tol* is >= 0, which NaN is not; an int field
    # is an integer >= 1, where numpy integers count and bools do not. A float
    # field that is no number, such as a string or None, enters no range rule
    # here or in validate_params
    out = []
    for f in fields(cls):
        name, value = f.name, getattr(p, f.name)
        if type(f.default) is float:
            if isinstance(value, (bool, np.bool_)) or not _real(value):
                out.append(f"{name} must be a real number, got {value!r}")
                if not _real(value):
                    continue
            elif _past_float_range(value):
                out.append(f"{name} must be a real number a float can hold, got one past float range")
                continue
            if name.startswith("tol") and not value >= 0.0:
                out.append(f"{name} must be >= 0, got {value}")
        elif type(f.default) is int:
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                out.append(f"{name} must be an integer, got {value!r}")
            elif value < 1:
                out.append(f"{name} must be >= 1, got {value}")
    return out


def _raise_violations(out):
    if out:
        raise ValueError("; ".join(out))


@dataclass
class StepRecord:
    """Per-iteration trace row (elapsed is wall seconds for the iteration)."""

    k: int
    t_x: float
    t_y: float
    norm_dx: float
    norm_dy: float
    L_beta: float
    L_hat: float
    feas_inf: float
    kkt_inf: float
    ofv: float
    backtracks_x: int
    backtracks_y: int
    elapsed: float


@dataclass
class SolveResult:
    """What :func:`run` returns.

    ``stop_reason`` says why the run ended: the stop rule that fired, or the
    message of the error an iteration broke down with. ``ell`` and ``sigma``
    are the weights of the run's last :class:`SolverState`'s metrics, which
    exceed the caller's where a metric was repaired (the caller's, when the
    metrics at ``w0`` could not be repaired). ``final`` is that state's
    iterate, whose arrays are read-only (``w0`` itself when the run built no
    state). ``iterations`` is the number of records in ``trace``.
    """

    final: Iterate
    status: SolveStatus
    trace: List[StepRecord] = field(default_factory=list)
    stop_reason: str = ""
    ell: Optional[float] = None
    sigma: Optional[float] = None

    @property
    def iterations(self):
        return len(self.trace)


class BlockMetric(NamedTuple):
    """One block's metric held as the matrix ``Hcal`` with its Cholesky factor."""

    model: np.ndarray  # a read-only copy of the Hessian model
    weight: float  # ell (x block) or sigma (y block)
    Hcal: np.ndarray
    factor: tuple  # (c, lower) pair from cholesky_spd

    def solve(self, g):
        """``Hcal^{-1} g``."""
        return cholesky_solve(self.factor, g)

    def quad(self, d):
        """``d^T Hcal d``."""
        return float(d.dot(self.Hcal @ d))


class LowRankMetric(NamedTuple):
    """The x-metric ``Hcal_x = diag(D) + beta A^T A`` with ``D = h + ell > 0``,
    for a diagonal model ``h`` and a wide ``A`` (m < n), never formed.

    By the matrix inversion lemma ``Hcal_x^{-1} g = D^-1 g - D^-1 A^T C^-1 A D^-1 g``
    with the m x m capacitance matrix ``C = I / beta + A D^-1 A^T``, the only
    matrix factored. ``C`` is built from ``D``, ``ell`` and ``beta`` alone,
    on the problem's ``A A^T`` (see :func:`_capacitance`); nothing is taken
    from another metric. Same methods as :class:`BlockMetric`.
    """

    model: np.ndarray  # h, a read-only copy of the model
    weight: float  # ell
    D: np.ndarray
    A: np.ndarray
    beta: float
    factor: tuple  # Cholesky factor of C

    def solve(self, g):
        u = g / self.D
        z = cholesky_solve(self.factor, self.A @ u)
        return u - (self.A.T @ z) / self.D

    def quad(self, d):
        Ad = self.A @ d
        return float(d.dot(self.D * d) + self.beta * Ad.dot(Ad))


class DiagonalMetric(NamedTuple):
    """The y-metric ``Hcal_y = diag(D)`` with ``D = h + beta + sigma > 0``, for a
    diagonal model ``h``, held as vectors and never factored.

    ``r = 1 / sqrt(D)`` is the inverse diagonal of the Cholesky factor
    ``diag(sqrt(D))``, so ``solve`` is the two triangular solves of a factored
    ``diag(D)``. Same methods as :class:`BlockMetric`.
    """

    model: np.ndarray  # h, a read-only copy of the model
    weight: float  # sigma
    D: np.ndarray
    r: np.ndarray

    def solve(self, g):
        return (g * self.r) * self.r

    def quad(self, d):
        return float(d.dot(self.D * d))


class SolverState(NamedTuple):
    """Everything :func:`iterate_once` reads; build the first with :func:`initial_state`.

    ``params`` is the caller's set, unchanged, and ``k`` is the index of the
    next iteration. ``w`` is the iterate, whose arrays are read-only.
    ``x_eval`` / ``y_eval`` are the :class:`~prsqp.alf.PointEval` of ``w.x``
    and the :class:`~prsqp.alf.YPointEval` of ``w.y``, and ``L_beta`` is
    ``L_beta(w)``, summed from those records. ``metric_x`` / ``metric_y`` are
    the factored metrics at the Hessian models at ``w``. Each holds its model
    as ``.model``, a read-only array in the shape the problem's Hessian
    callable returns (a matrix, or the diagonal of a diagonal model), and the
    ``ell`` / ``sigma`` in use as ``.weight``, which exceeds the caller's
    where a metric was repaired. ``eta_y`` is the running maximum of
    ``||H_y||`` over the models so far, the uniform curvature bound of the
    merit column.
    """

    P: object
    params: SolverParams
    k: int
    w: Iterate
    x_eval: PointEval
    y_eval: YPointEval
    L_beta: float
    metric_x: BlockMetric | LowRankMetric
    metric_y: BlockMetric | DiagonalMetric
    eta_y: float


class IterationOutcome(NamedTuple):
    """What :func:`iterate_once` returns; ``state`` is the next iteration's input."""

    state: SolverState
    record: StepRecord
    internals: dict
    kkt: KktResidual  # residuals at the new iterate; ``record.kkt_inf`` is its total


_MAX_METRIC_REPAIR = 60  # doublings of ell / sigma before giving up


def _capacitance(P, D, ell, beta):
    # C = I / beta + A D^-1 A^T. Where D equals ell (h = 0) outside fewer than
    # n/2 coordinates K, C is the base I / beta + P.AAt / ell plus the
    # symmetric part of A_K diag(1/D_K - 1/ell) A_K^T: 2 m^2 |K| flops against
    # m^2 n for B B^T. C depends on D, ell and beta alone.
    K = np.flatnonzero(D != ell)
    if 2 * K.size >= P.n1:
        B = P.A / np.sqrt(D)
        C = B @ B.T  # B B^T is computed exactly symmetric
        C.flat[:: P.n2 + 1] += 1.0 / beta
        return C
    base = P.AAt / ell
    base.flat[:: P.n2 + 1] += 1.0 / beta
    A_K = P.A[:, K]
    U = (A_K * (1.0 / D[K] - 1.0 / ell)) @ A_K.T
    C = U + U.T
    C *= 0.5
    C += base
    return C


def _metric_x(P, model, ell, beta):
    # factored Hcal_x = H_x + beta A^T A + ell I. A diagonal model (1-D) with
    # D = h + ell > 0 and a wide A gets a LowRankMetric.
    if model.ndim == 1:
        D = model + ell
        if P.n2 < P.n1 and (D > 0.0).all():
            factor = cholesky_spd(_capacitance(P, D, ell, beta))
            return LowRankMetric(model, ell, D, P.A, beta, factor)
    # (model + beta AtA) + ell I summed in place, ell on the diagonal only, so
    # that fewer n1 x n1 arrays are live while the previous iteration's metric
    # is still held
    Hcal = beta * P.AtA
    if model.ndim == 1:
        Hcal.flat[:: P.n1 + 1] += model
    else:
        Hcal += model
    Hcal.flat[:: P.n1 + 1] += ell
    return BlockMetric(model, ell, Hcal, cholesky_spd(Hcal))


def _metric_y(P, model, sigma, beta):
    # factored Hcal_y = H_y + (beta + sigma) I. A diagonal model (1-D) gets a
    # DiagonalMetric; it is rejected where the Cholesky factorization of the
    # dense metric would fail, and named as LAPACK names a leading minor.
    if model.ndim == 1:
        D = model + (beta + sigma)
        if not (D > 0.0).all():
            raise NotPositiveDefinite(f"{int(np.argmin(D > 0.0)) + 1}-th diagonal entry is not positive")
        return DiagonalMetric(model, sigma, D, 1.0 / np.sqrt(D))
    Hcal = np.eye(P.n2)
    Hcal *= beta + sigma
    Hcal += model
    return BlockMetric(model, sigma, Hcal, cholesky_spd(Hcal))


def _metric(P, block, H, weight, beta, kept):
    # the block's metric of the Hessian model H: ``kept``, the previous
    # state's, when H equals its model exactly, else one built on a read-only
    # private copy of H (no later write to the caller's array reaches a
    # factor), ``weight`` doubled until it factors
    if kept is not None and np.array_equal(kept.model, H):
        return kept
    model = np.array(H, dtype=float)
    if not np.isfinite(model).all():
        raise NumericalError(f"{block}-model has non-finite entries")
    model.flags.writeable = False
    build, name = (_metric_x, "ell") if block == "x" else (_metric_y, "sigma")
    for attempt in range(_MAX_METRIC_REPAIR + 1):
        try:
            return build(P, model, weight, beta)
        except NotPositiveDefinite as exc:
            if attempt == _MAX_METRIC_REPAIR or math.isinf(2.0 * weight):
                raise NumericalError(
                    f"{block}-metric stayed indefinite after {attempt} doublings of {name}, "
                    f"the last at {name} = {weight}: {exc}"
                ) from None
            weight *= 2.0


def _state(P, params, k, x_eval, y_eval, lam, prev=None):
    # the SolverState at the read-only iterate of the records' points and
    # lam, with the metrics of the problem's Hessian models there: each kept
    # from ``prev``, the previous state, where its model is unchanged (see
    # _metric), else built at prev's weight, or at params' at the start.
    # eta_y grows with a new y-model only
    w = Iterate(x_eval.x, y_eval.y, lam)
    for a in (w.x, w.y, w.lam):
        a.flags.writeable = False
    L_beta = eval_alf(P, w, params.beta, x_eval, y_eval)
    H_x, H_y = hessian_pair(P, w.x, w.y)
    if prev is None:
        kept_x = kept_y = None
        ell, sigma, eta_y = params.ell, params.sigma, 0.0
    else:
        kept_x, kept_y = prev.metric_x, prev.metric_y
        ell, sigma, eta_y = kept_x.weight, kept_y.weight, prev.eta_y
    metric_x = _metric(P, "x", H_x, ell, params.beta, kept_x)
    metric_y = _metric(P, "y", H_y, sigma, params.beta, kept_y)
    if metric_y is not kept_y:  # a 1-D model's entries are its eigenvalues
        eta_y = max(eta_y, spectral_norm(metric_y.model))
    return SolverState(P, params, k, w, x_eval, y_eval, L_beta, metric_x, metric_y, eta_y)


def hybrid_accelerate(tilde, current, alpha):
    """Search direction ``d = (1 + alpha)(tilde - current)`` of one block, the
    step to the extrapolated target ``tilde + alpha (tilde - current)``. As
    ``alpha > -1`` (:class:`SolverParams` enforces it), ``d`` keeps the
    orientation of the model step.
    """
    return (1.0 + alpha) * (tilde - current)


class SearchStep(NamedTuple):
    """What :func:`line_search` returns: the accepted step ``t``, the
    ``backtracks`` before it, the records ``x_eval`` / ``y_eval`` of the
    accepted point's x and y, the searched block's being the accepted trial's,
    and the ``quad = d^T Hcal d`` that the Armijo test used (0 for ``d = 0``).
    """

    t: float
    backtracks: int
    x_eval: PointEval
    y_eval: YPointEval
    quad: float


def line_search(P, lam, d, metric, params, block, x_eval, y_eval, L0):
    """Armijo backtracking for one block of ``L_beta`` at fixed other blocks.

    The search starts at ``(x_eval.x, y_eval.y, lam)``, where ``x_eval`` /
    ``y_eval`` are a :class:`~prsqp.alf.PointEval` and a
    :class:`~prsqp.alf.YPointEval`, and accepts the largest ``t = 0.6^i``
    (``i = 0, 1, ...``) with

        ``L_beta(moved) <= L0 - 0.4 * t * d^T Hcal d``

    where ``metric``, a block's metric in a :class:`SolverState`, gives
    ``d^T Hcal d`` as ``quad`` and ``moved`` shifts the ``block`` ("x" or "y")
    of the start by ``t d``. ``L0`` is ``L_beta(start)``, which the caller
    has. The test of the full step ``t = 1`` carries a ``1e-12 (1 + |L0|)``
    float slack, so a vanishing direction near a stationary point is not
    rejected on rounding noise; a shorter step gets none, so a search along
    an uphill direction fails. An x trial evaluates ``A x`` and ``f`` at its
    own point; a y trial evaluates only ``g`` and the residual.

    Returns a :class:`SearchStep` (``t = 1``, the start's own records and
    ``quad = 0`` at once for ``d = 0``). Raises :class:`LineSearchFailed`
    after 60 shrinks.
    """

    if not d.any():
        return SearchStep(1.0, 0, x_eval, y_eval, 0.0)
    quad = metric.quad(d)
    beta = params.beta
    if not (math.isfinite(L0) and math.isfinite(quad)):
        raise NumericalError(f"non-finite quantities entering the {block} line search")
    slack = 1e-12 * (1.0 + abs(L0))
    t = 1.0
    for i in range(_MAX_BACKTRACKS + 1):
        trial_x = PointEval(P, x_eval.x + t * d) if block == "x" else x_eval
        trial_y = y_eval if block == "x" else YPointEval(P, y_eval.y + t * d)
        L_t = _alf_value(trial_x.f, trial_y.g, lam, trial_x.Ax - trial_y.y, beta)
        if L_t <= L0 - _RHO * t * quad + slack:
            return SearchStep(t, i, trial_x, trial_y, quad)
        t *= _NU
        slack = 0.0  # rounding noise is forgiven at the full step only
    raise LineSearchFailed(f"{block} line search found no acceptable step within {_MAX_BACKTRACKS} backtracks")


def _block_step(state, lam, g, block, x_eval, y_eval, L0):
    # one block's step from (x_eval.x, y_eval.y, lam), where L_beta is L0,
    # for the block gradient g of L_beta: the model step in the state's
    # metric, its extrapolation by alpha and the Armijo search along it;
    # returns (tilde, d, SearchStep)
    if not np.isfinite(g).all():
        raise NumericalError(f"non-finite {block}-gradient")
    metric, current = (state.metric_x, x_eval.x) if block == "x" else (state.metric_y, y_eval.y)
    tilde = current - metric.solve(g)
    if not np.isfinite(tilde).all():
        raise NumericalError(f"{block}-subproblem produced non-finite values")
    d = hybrid_accelerate(tilde, current, state.params.alpha)
    return tilde, d, line_search(state.P, lam, d, metric, state.params, block, x_eval, y_eval, L0)


def dual_update(lam, step, beta, residual):
    """Scaled multiplier move ``lam - step * beta * residual`` (residual = A x - y)."""
    return lam - step * beta * residual


def _quiet_numerics(fn):
    # divergent parameter choices legitimately overflow float64; the explicit
    # isfinite checks below turn that into NumericalError instead of warnings
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*args, **kwargs)

    return wrapper


def initial_state(P, w0, params):
    """The :class:`SolverState` at ``w0`` that :func:`iterate_once` starts from.

    The Hessian models at ``w0`` come from
    :func:`~prsqp.problems.hessian_pair`, in the shapes the problem returns:
    each an ``(n, n)`` matrix or the ``(n,)`` diagonal of a diagonal model. The
    shape picks the metric (see the module docstring), so a diagonal model
    given as a matrix takes the dense path. The solver works on read-only
    copies of the models and of ``w0``'s arrays, so the caller's stay writable
    and no later write to them reaches the state. Both metrics are factored,
    ``ell`` / ``sigma`` doubled until each factors; each metric holds the
    weight it was factored at, and the state's ``params`` is ``params``
    itself, never changed. The state's ``L_beta`` is summed from ``A x0``,
    ``f(x0)`` and ``g(y0)``, which its records keep.

    Raises ``TypeError`` when ``params`` is no :class:`SolverParams` or ``w0``
    no :class:`~prsqp.alf.Iterate`, ``ValueError`` when its sizes are not the
    problem's, and :class:`NumericalError` when a metric stays indefinite
    after 60 doublings.
    """
    if not isinstance(params, SolverParams):
        raise TypeError("params must be a SolverParams")
    if not isinstance(w0, Iterate):
        raise TypeError("w0 must be an Iterate")
    if w0.x.shape[0] != P.n1 or w0.y.shape[0] != P.n2:
        raise ValueError(
            f"w0 has shapes x:{w0.x.shape}, y:{w0.y.shape}; problem expects {P.n1}/{P.n2}"
        )
    return _state(P, params, 0, PointEval(P, w0.x.copy()), YPointEval(P, w0.y.copy()), w0.lam.copy())


@_quiet_numerics
def iterate_once(state):
    """One full iteration from the :class:`SolverState` ``state``; returns an :class:`IterationOutcome`.

    Both block steps solve in the state's factored metrics, and the line
    searches start from its records of ``w.x`` and ``w.y``: the x search from
    its ``L_beta``, the y search from ``L_beta(x_{k+1}, y_k, lam_{k+1/2})``.
    The Hessian models are then refreshed at ``w_{k+1}``: a metric whose
    refreshed model is exactly equal to its model is kept, and any other is
    factored afresh, its weight doubled until it factors (module docstring,
    step 6). ``eta_y`` grows only with a new y-model. The record's ``L_hat``
    is the merit value at ``w_{k+1}`` and this step's ``d_y``, with the
    state's curvature bound ``eta_y + beta + sigma`` (``sigma`` its y-metric's
    weight), NaN when the problem has no ``lipschitz_g``.
    The outcome's ``internals`` hold the per-block gradients, directions and
    the metric quadratic forms of the line searches, for invariant checks.

    Raises :class:`LineSearchFailed` or :class:`NumericalError` upward.
    """
    t_start = time.perf_counter()
    P, params, w = state.P, state.params, state.w
    beta = params.beta
    x_eval, y_eval = state.x_eval, state.y_eval

    # ----- x block: model step in the state's metric, extrapolation, Armijo
    gx = grad_alf(P, w, beta, x_eval, y_eval).gx
    x_tilde, d_x, (t_x, bt_x, x_eval, _, quad_x) = _block_step(state, w.lam, gx, "x", x_eval, y_eval, state.L_beta)
    x_next = x_eval.x  # the accepted trial: x_{k+1}, with A x_{k+1} and f(x_{k+1}) in its record

    # ----- first dual update on the mixed residual A x_{k+1} - y_k
    residual_mid = x_eval.Ax - w.y
    lam_half = dual_update(w.lam, params.r, beta, residual_mid)

    # ----- y block at the updated x and half-step multiplier
    gy = y_eval.grad_g + lam_half - beta * residual_mid
    L_mid = _alf_value(x_eval.f, y_eval.g, lam_half, residual_mid, beta)
    y_tilde, d_y, (t_y, bt_y, _, y_eval, quad_y) = _block_step(state, lam_half, gy, "y", x_eval, y_eval, L_mid)
    y_next = y_eval.y  # the accepted trial: y_{k+1}, with g(y_{k+1}) in its record

    # ----- second dual update on the full new residual
    lam_next = dual_update(lam_half, params.s, beta, x_eval.Ax - y_next)
    if not (np.isfinite(x_next).all() and np.isfinite(y_next).all() and np.isfinite(lam_next).all()):
        raise NumericalError("iteration produced non-finite iterate")

    # ----- refresh the second-order model, keeping both metrics factorable
    state_next = _state(P, params, state.k + 1, x_eval, y_eval, lam_next, prev=state)
    w_next, L_beta = state_next.w, state_next.L_beta
    if P.lipschitz_g is not None:
        bound = state.eta_y + beta + state.metric_y.weight
        try:
            L_hat = eval_merit_hat(P, AugmentedIterate(w_next, d_y), params, bound, L_beta=L_beta)
        except OverflowError as exc:  # the merit weight squares the curvature bound
            raise NumericalError(str(exc)) from None
    else:
        L_hat = float("nan")
    kkt = kkt_residual(P, w_next, x_eval, y_eval)
    record = StepRecord(
        k=state.k,
        t_x=t_x,
        t_y=t_y,
        norm_dx=math.sqrt(d_x.dot(d_x)),  # the bits of np.linalg.norm
        norm_dy=math.sqrt(d_y.dot(d_y)),
        L_beta=L_beta,
        L_hat=L_hat,
        feas_inf=kkt.feas,  # max |A x_{k+1} - y_{k+1}|
        kkt_inf=kkt.total,
        ofv=composite_objective(P, x_eval),
        backtracks_x=bt_x,
        backtracks_y=bt_y,
        elapsed=time.perf_counter() - t_start,
    )

    internals = dict(
        gx=gx,
        d_x=d_x,
        quad_x=quad_x,
        gx_dot_dx=float(gx @ d_x),
        x_tilde=x_tilde,
        gy=gy,
        d_y=d_y,
        quad_y=quad_y,
        gy_dot_dy=float(gy @ d_y),
        y_tilde=y_tilde,
        lam_half=lam_half,
    )
    return IterationOutcome(state_next, record, internals, kkt)


@_quiet_numerics
def run(P, w0, params, callback: Optional[Callable[[IterationOutcome], None]] = None):
    """Drive :func:`iterate_once` from :func:`initial_state` at ``w0`` until convergence or breakdown.

    Stops with status Converged when the relative sup-norm step
    ``||w_{k+1} - w_k||_inf / max(1, ||w_k||_inf)`` falls to ``params.tol_step``
    and, at the same iterate, the first-order residual
    ``max(kkt.total, kkt.composite)`` (see :func:`~prsqp.problems.kkt_residual`)
    is at most the absolute ``params.tol_kkt``, so a small step away from a
    stationary point does not end the run; a residual with a NaN part never
    passes. It stops with IterLimit after ``max_iter`` iterations, and with
    LineSearchFailed / NumericalError when building the state or an iteration
    raises (captured, not propagated; so is such an error raised by
    ``callback``). The caller's ``params`` and ``w0`` are never changed: a
    repaired weight lives in the states' metrics, and the result reports the
    last state's. ``callback``, when given, receives each
    :class:`IterationOutcome`. Errors in the inputs propagate.
    """
    trace: List[StepRecord] = []
    state = None
    try:
        state = initial_state(P, w0, params)  # raises TypeError before params is read
        status, reason = SolveStatus.ITER_LIMIT, f"max_iter: {params.max_iter} iterations"
        for _ in range(params.max_iter):
            out = iterate_once(state)
            prev, state = state.w, out.state
            trace.append(out.record)
            if callback is not None:
                callback(out)
            residual = _max_or_nan(out.kkt.total, out.kkt.composite)
            if residual <= params.tol_kkt:
                before = prev.concat()
                step = float(np.abs(state.w.concat() - before).max()) / max(1.0, float(np.abs(before).max()))
                if step <= params.tol_step:
                    status = SolveStatus.CONVERGED
                    reason = (
                        f"tol_step and tol_kkt: relative step {step:.3g} <= {params.tol_step}, "
                        f"first-order residual {residual:.3g} <= {params.tol_kkt}"
                    )
                    break
    except LineSearchFailed as exc:
        status, reason = SolveStatus.LINE_SEARCH_FAILED, str(exc)
    except NumericalError as exc:
        status, reason = SolveStatus.NUMERICAL_ERROR, str(exc)
    if state is None:
        return SolveResult(w0, status, trace, reason, params.ell, params.sigma)
    return SolveResult(state.w, status, trace, reason, state.metric_x.weight, state.metric_y.weight)
