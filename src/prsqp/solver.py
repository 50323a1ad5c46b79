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
   ``n1/2`` coordinates, the capacitance matrix is the carried matrix of
   ``h = 0`` plus a correction in those coordinates' columns of ``A`` (see
   :func:`_capacitance`). Otherwise (``D`` not positive, ``n2 >= n1`` or a
   matrix model) the dense ``Hcal_x`` is formed and factored, so ``ell`` is
   doubled exactly where the dense metric needs it (the structured one is
   positive definite whenever it is used). ``A^T A`` is formed for the first
   dense ``Hcal_x``.
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
   :func:`~prsqp.core.cholesky_solve`). The factors and the weights go into
   the new :class:`SolverState`, whose block steps solve in them; a block's
   factor is kept, not rebuilt, while its refreshed model is exactly equal to
   the previous one and its weight has not doubled. :func:`initial_state`
   factors the metrics at ``w_0`` in the same way, so no step repairs one.

The dual steps ``r, s`` may take either sign (ascent or descent flavors) as
long as ``r + s != 0``; the diagnostics module computes the decrease margins
that certify monotonicity of the merit function for a given choice.

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
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Callable, List, NamedTuple, Optional

import numpy as np

from .alf import Iterate, PointEval, YPointEval, _alf_value, eval_alf, eval_merit_hat, grad_alf
from .core import DimensionMismatch, NotPositiveDefinite, as_vector, cholesky_solve, cholesky_spd, spectral_norm
from .diagnostics import KktResidual, _max_or_nan, kkt_residual
from .problems import composite_objective, hessian_pair


class ProximalNotPD(NotPositiveDefinite):
    """A subproblem metric failed to factor; raise ell (x block) or sigma (y block)."""


class LineSearchFailed(RuntimeError):
    """Armijo backtracking exhausted max_backtracks without an acceptable step."""


class NumericalError(ArithmeticError):
    """The iteration produced non-finite values or an unrepairable metric."""


class SolveStatus(str, Enum):
    CONVERGED = "Converged"
    ITER_LIMIT = "IterLimit"
    LINE_SEARCH_FAILED = "LineSearchFailed"
    NUMERICAL_ERROR = "NumericalError"


@dataclass(frozen=True)
class SolverParams:
    """Algorithm parameters, fixed for a run; ranges are enforced at construction.

    ``alpha`` must satisfy ``-1 < alpha < 1/rho - 1`` unless ``relaxed_alpha``
    is set, in which case only ``alpha > -1`` is required and runs are tagged
    as outside the supported theory. ``r`` and ``s`` are the two dual step
    scales (positive = ascent, negative = descent) with ``r + s != 0``.
    ``tol_step`` (relative) and ``tol_kkt`` (absolute) are the two tolerances
    that must both hold for :func:`run` to report Converged. A set is frozen:
    build a changed one with ``dataclasses.replace``, which validates it anew.
    """

    rho: float = 0.4
    nu: float = 0.6
    alpha: float = 0.0
    beta: float = 1.0
    ell: float = 5.0
    sigma: float = 10.0
    r: float = 0.1
    s: float = 1.0
    max_iter: int = 10_000
    tol_step: float = 1e-4
    tol_kkt: float = 1e-2
    max_backtracks: int = 60
    relaxed_alpha: bool = False

    def __post_init__(self):
        violations = validate_params(self)
        if violations:
            raise ValueError("; ".join(violations))


_REAL_PARAMS = [f.name for f in fields(SolverParams) if isinstance(f.default, float)]


def validate_params(params):
    """Range violations of a parameter set, as human-readable strings.

    ``params`` is a :class:`SolverParams` or any object with the same
    attributes; a :class:`SolverParams` always gives ``[]``, as its
    constructor raises on the violations listed here. Unless the set's
    ``relaxed_alpha`` is true, the upper acceleration bound
    ``alpha < 1/rho - 1`` is enforced.
    """
    p = params
    # a JSON true is not a weight of 1
    bools = [k for k in _REAL_PARAMS if isinstance(getattr(p, k), (bool, np.bool_))]
    out = [f"{k} must be a real number, got {getattr(p, k)!r}" for k in bools]
    if not 0.0 < p.rho < 1.0:
        out.append(f"rho must lie in (0, 1), got {p.rho}")
    if not 0.0 < p.nu < 1.0:
        out.append(f"nu must lie in (0, 1), got {p.nu}")
    if not -1.0 < p.alpha < math.inf:
        out.append(f"alpha must be finite and exceed -1, got {p.alpha}")
    relaxed = p.relaxed_alpha
    if not isinstance(relaxed, (bool, np.bool_)):
        # a string such as "false" is truthy; it must not relax the range
        out.append(f"relaxed_alpha must be a boolean, got {relaxed!r}")
        relaxed = False
    if not relaxed and 0.0 < p.rho < 1.0 and not p.alpha < 1.0 / p.rho - 1.0:
        out.append(f"alpha = {p.alpha} is not below 1/rho - 1 = {1.0 / p.rho - 1.0} (set relaxed_alpha to override)")
    for name in ("beta", "ell", "sigma"):
        if not 0.0 < getattr(p, name) < math.inf:
            out.append(f"{name} must be positive and finite, got {getattr(p, name)}")
    for name in ("r", "s"):
        if not math.isfinite(getattr(p, name)):
            out.append(f"{name} must be finite, got {getattr(p, name)}")
    if p.r + p.s == 0.0:
        out.append(f"r + s must be nonzero, got r = {p.r}, s = {p.s}")
    _check_count(out, "max_iter", p.max_iter)
    if not p.tol_step >= 0.0:
        out.append(f"tol_step must be >= 0, got {p.tol_step}")
    if not p.tol_kkt >= 0.0:
        out.append(f"tol_kkt must be >= 0, got {p.tol_kkt}")
    _check_count(out, "max_backtracks", p.max_backtracks)
    return out


def _check_count(out, name, value):
    # a loop limit is an integer >= 1; numpy integers count, bools do not
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        out.append(f"{name} must be an integer, got {value!r}")
    elif value < 1:
        out.append(f"{name} must be >= 1, got {value}")


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
    are the proximal weights of the run's last :class:`SolverState`, which
    exceed the caller's where a metric was repaired (the caller's, when the
    metrics at ``w0`` could not be repaired). ``final`` is that state's
    iterate, whose arrays are read-only (``w0`` itself when the run built no
    state). ``iterations`` is the number of records in ``trace``.
    """

    final: Iterate
    status: SolveStatus
    trace: List[StepRecord] = field(default_factory=list)
    theory_supported: bool = True
    stop_reason: str = ""
    ell: Optional[float] = None
    sigma: Optional[float] = None

    @property
    def iterations(self):
        return len(self.trace)


class BlockMetric(NamedTuple):
    """One block's metric held as the matrix ``Hcal`` with its Cholesky factor."""

    model: np.ndarray  # the Hessian model, as returned by _own
    weight: float  # ell (x block) or sigma (y block)
    Hcal: np.ndarray
    factor: tuple  # (c, lower) pair from cholesky_spd

    def solve(self, g):
        """``Hcal^{-1} g``."""
        return cholesky_solve(self.factor, g)

    def matvec(self, d):
        """``Hcal d``."""
        return self.Hcal @ d

    def quad(self, d):
        """``d^T Hcal d``."""
        return float(d.dot(self.Hcal @ d))


class LowRankMetric(NamedTuple):
    """The x-metric ``Hcal_x = diag(D) + beta A^T A`` with ``D = h + ell > 0``,
    for a diagonal model ``h`` and a wide ``A`` (m < n), never formed.

    By the matrix inversion lemma ``Hcal_x^{-1} g = D^-1 g - D^-1 A^T C^-1 A D^-1 g``
    with the m x m capacitance matrix ``C = I / beta + A D^-1 A^T``, the only
    matrix factored. ``base`` is the ``C`` of the model ``h = 0``, when ``C``
    was assembled from it (see :func:`_capacitance`). Same methods as
    :class:`BlockMetric`.
    """

    model: np.ndarray  # h, as returned by _own
    weight: float  # ell
    D: np.ndarray
    A: np.ndarray
    beta: float
    base: Optional[np.ndarray]
    factor: tuple  # Cholesky factor of C

    def solve(self, g):
        u = g / self.D
        z = cholesky_solve(self.factor, self.A @ u)
        return u - (self.A.T @ z) / self.D

    def matvec(self, d):
        return self.D * d + self.beta * (self.A.T @ (self.A @ d))

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

    model: np.ndarray  # h, as returned by _own
    weight: float  # sigma
    D: np.ndarray
    r: np.ndarray

    def solve(self, g):
        return (g * self.r) * self.r

    def matvec(self, d):
        return self.D * d

    def quad(self, d):
        return float(d.dot(self.D * d))


class SolverState(NamedTuple):
    """Everything :func:`iterate_once` reads; build the first with :func:`initial_state`.

    ``params`` holds the weights in use, which exceed the caller's where a
    metric was repaired, and ``k`` is the index of the next iteration. ``w`` is
    the iterate and ``d_y_prev`` the previous accepted y-direction (zero at the
    start), the two parts the merit function reads. ``x_eval`` / ``y_eval``
    are the :class:`~prsqp.alf.PointEval` of ``w.x`` and the
    :class:`~prsqp.alf.YPointEval` of ``w.y``, and ``L_beta`` is
    ``L_beta(w)``, ``None`` until evaluated. ``metric_x`` / ``metric_y`` are
    the factored metrics at the Hessian models at ``w``. Each holds its model
    as ``.model``, a read-only array in the shape the problem's Hessian
    callable returns (a matrix, or the diagonal of a diagonal model), and its
    ``ell`` / ``sigma`` as ``.weight``. ``eta_y`` is the running maximum of
    ``||H_y||`` over the models so far, the uniform curvature bound of the
    merit column. The arrays of ``w`` and ``d_y_prev`` are read-only.
    """

    P: object
    params: SolverParams
    k: int
    w: Iterate
    d_y_prev: np.ndarray
    x_eval: PointEval
    y_eval: YPointEval
    L_beta: Optional[float]
    metric_x: BlockMetric | LowRankMetric
    metric_y: BlockMetric | DiagonalMetric
    eta_y: float


class IterationOutcome(NamedTuple):
    """What :func:`iterate_once` returns; ``state`` is the next iteration's input."""

    state: SolverState
    record: StepRecord
    internals: Optional[dict]
    kkt: KktResidual  # residuals at the new iterate; ``record.kkt_inf`` is its total


_MAX_METRIC_REPAIR = 60  # doublings of ell / sigma before giving up


def _own(H, metric):
    # the model the solver works with in place of the caller's H: metric.model
    # when H is exactly equal to it, else a read-only private copy of H. So no
    # later write to the caller's array reaches a state's factor, and equal
    # models are one array, which a factor then fits by identity.
    if metric is not None and (H is metric.model or np.array_equal(metric.model, H)):
        return metric.model
    H = np.array(H, dtype=float)
    H.flags.writeable = False
    return H


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False


def _scaled_eye(n, c):
    out = np.eye(n)
    out *= c
    return out


def _cholesky(M, failure):
    try:
        return cholesky_spd(M)
    except NotPositiveDefinite as exc:
        raise ProximalNotPD(f"{failure}: {exc}") from None


def _capacitance(P, D, ell, beta, cached):
    # C = I / beta + A D^-1 A^T, and the base it was assembled from (or None).
    # Where D equals ell (h = 0) outside fewer than n/2 coordinates K, C is
    # the base I / beta + A A^T / ell plus the symmetric part of
    # A_K diag(1/D_K - 1/ell) A_K^T: 2 m^2 |K| flops against m^2 n for B B^T.
    # The base is taken from ``cached`` at the same ell and beta. C depends on
    # D, ell and beta alone, so a kept metric has the bits of a fresh one.
    K = np.flatnonzero(D != ell)
    if 2 * K.size >= P.n1:
        B = P.A / np.sqrt(D)
        C = B @ B.T  # B B^T is computed exactly symmetric
        C.flat[:: P.n2 + 1] += 1.0 / beta
        return C, None
    same = isinstance(cached, LowRankMetric) and cached.weight == ell and cached.beta == beta
    if same and cached.base is not None:
        base = cached.base
    else:
        base = P.A @ P.A.T
        base /= ell
        base.flat[:: P.n2 + 1] += 1.0 / beta
    A_K = P.A[:, K]
    U = (A_K * (1.0 / D[K] - 1.0 / ell)) @ A_K.T
    C = U + U.T
    C *= 0.5
    C += base
    return C, base


def _metric_x(P, model, ell, beta, cached=None):
    # factored Hcal_x = H_x + beta A^T A + ell I for a model from _own; ``cached`` when it fits.
    # A diagonal model (1-D) with D = h + ell > 0 and a wide A gets a LowRankMetric.
    if cached is not None and cached.model is model and cached.weight == ell:
        return cached
    if model.ndim == 1:
        D = model + ell
        if P.n2 < P.n1 and (D > 0.0).all():
            C, base = _capacitance(P, D, ell, beta, cached)
            factor = _cholesky(C, f"x-metric capacitance matrix not positive definite at ell = {ell}")
            return LowRankMetric(model, ell, D, P.A, beta, base, factor)
    # (model + beta AtA) + ell I summed in place, ell on the diagonal only, so
    # that fewer n1 x n1 arrays are live while the previous iteration's metric
    # is still held
    Hcal = beta * P.AtA
    if model.ndim == 1:
        Hcal.flat[:: P.n1 + 1] += model
    else:
        Hcal += model
    Hcal.flat[:: P.n1 + 1] += ell
    factor = _cholesky(Hcal, f"x-metric not positive definite at ell = {ell}")
    return BlockMetric(model, ell, Hcal, factor)


def _metric_y(P, model, sigma, beta, cached=None):
    # factored Hcal_y = H_y + (beta + sigma) I for a model from _own; ``cached`` when it fits.
    # A diagonal model (1-D) gets a DiagonalMetric; it is rejected where the
    # Cholesky factorization of the dense metric would fail.
    if cached is not None and cached.model is model and cached.weight == sigma:
        return cached
    if model.ndim == 1:
        D = model + (beta + sigma)
        if not (D > 0.0).all():
            raise ProximalNotPD(f"y-metric not positive definite at sigma = {sigma}")
        return DiagonalMetric(model, sigma, D, 1.0 / np.sqrt(D))
    Hcal = _scaled_eye(P.n2, beta + sigma)
    Hcal += model
    factor = _cholesky(Hcal, f"y-metric not positive definite at sigma = {sigma}")
    return BlockMetric(model, sigma, Hcal, factor)


def _factored(metric_at, weight):
    # metric_at(weight), with the weight doubled until the metric factors
    for attempt in range(_MAX_METRIC_REPAIR + 1):
        try:
            return metric_at(weight)
        except NotPositiveDefinite:
            if attempt == _MAX_METRIC_REPAIR:
                raise NumericalError(
                    f"metric stayed indefinite after {_MAX_METRIC_REPAIR} proximal-weight doublings"
                ) from None
            weight *= 2.0


def _metrics(P, params, H_x, H_y, cached_x=None, cached_y=None):
    # both blocks' factored metrics at models from _own, and the params holding
    # their weights: ``params`` itself unless ell or sigma had to double
    metric_x = _factored(lambda ell: _metric_x(P, H_x, ell, params.beta, cached_x), params.ell)
    metric_y = _factored(lambda sigma: _metric_y(P, H_y, sigma, params.beta, cached_y), params.sigma)
    if (metric_x.weight, metric_y.weight) != (params.ell, params.sigma):
        params = replace(params, ell=metric_x.weight, sigma=metric_y.weight)
    return params, metric_x, metric_y


def hybrid_accelerate(tilde, current, alpha):
    """Search direction of one block after extrapolation by ``alpha``.

    The extrapolated target is ``tilde + alpha (tilde - current)``, so the
    direction from the current point is ``d = (1 + alpha)(tilde - current)``.
    Requires ``alpha > -1`` so ``d`` keeps the orientation of the model step.
    """
    if not alpha > -1.0:
        raise ValueError(f"alpha must exceed -1, got {alpha}")
    return (1.0 + alpha) * (np.asarray(tilde, dtype=float) - np.asarray(current, dtype=float))


class SearchStep(tuple):
    """What :func:`line_search` returns: the pair ``(t, backtracks)``.

    ``x_eval`` and ``y_eval`` are the :class:`~prsqp.alf.PointEval` of the
    accepted point's x and the :class:`~prsqp.alf.YPointEval` of its y. The
    searched block's record is that of the accepted trial, so its values are
    those the search evaluated: ``A x`` and ``f`` after an x search, ``g``
    after a y search.
    """

    def __new__(cls, t, backtracks, x_eval, y_eval):
        step = super().__new__(cls, (t, backtracks))
        step.x_eval = x_eval
        step.y_eval = y_eval
        return step


def line_search(P, point, d, Hcal, params, block, L0=None, x_eval=None, y_eval=None):
    """Armijo backtracking for one block of ``L_beta`` at fixed other blocks.

    Accepts the largest ``t = nu^i`` (``i = 0, 1, ...``) with

        ``L_beta(moved) <= L_beta(point) - rho * t * d^T Hcal d``

    where ``Hcal`` is the block's metric, as a matrix or as a metric of a
    :class:`SolverState` (which supplies ``d^T Hcal d`` through ``quad``), and
    ``moved`` shifts the ``block`` coordinate ("x" or "y") of ``point``
    by ``t d``. The comparison carries a ``1e-12 (1 + |L|)`` float slack so a
    vanishing direction near a stationary point is not rejected on rounding
    noise. ``L0`` is ``L_beta(point)`` when the caller already has it; it is
    evaluated otherwise. ``x_eval`` is the :class:`~prsqp.alf.PointEval` of
    ``point.x`` and ``y_eval`` the :class:`~prsqp.alf.YPointEval` of
    ``point.y`` when the caller keeps them. An x trial evaluates ``A x`` and
    ``f`` at its own point and reads ``g(point.y)`` from ``y_eval``; a y trial
    evaluates only ``g`` and the residual.

    Returns a :class:`SearchStep`, which unpacks as ``(t, i)``; ``d = 0``
    returns ``(1.0, 0)`` immediately.

    Raises :class:`LineSearchFailed` after ``params.max_backtracks`` shrinks.
    """
    if block not in ("x", "y"):
        raise ValueError(f"block must be 'x' or 'y', got {block!r}")
    d = as_vector(d, name="d")
    at = PointEval(P, point.x) if x_eval is None else x_eval
    at_y = YPointEval(P, point.y) if y_eval is None else y_eval
    if not d.any():
        if block == "x":
            return SearchStep(1.0, 0, PointEval(P, point.x + d), at_y)
        return SearchStep(1.0, 0, at, YPointEval(P, point.y + d))
    quad = float(d.dot(Hcal @ d)) if isinstance(Hcal, np.ndarray) else Hcal.quad(d)
    beta, lam = params.beta, point.lam
    if L0 is None:
        L0 = _alf_value(at.f, at_y.g, lam, at.Ax - point.y, beta)
    if not (math.isfinite(L0) and math.isfinite(quad)):
        raise NumericalError(f"non-finite quantities entering the {block} line search")
    slack = 1e-12 * (1.0 + abs(L0))
    t = 1.0
    for i in range(params.max_backtracks + 1):
        if block == "x":
            trial = PointEval(P, point.x + t * d)
            L_t = _alf_value(trial.f, at_y.g, lam, trial.Ax - point.y, beta)
        else:
            trial = YPointEval(P, point.y + t * d)  # x, and so its record, is fixed
            L_t = _alf_value(at.f, trial.g, lam, at.Ax - trial.y, beta)
        if L_t <= L0 - params.rho * t * quad + slack:
            return SearchStep(t, i, trial, at_y) if block == "x" else SearchStep(t, i, at, trial)
        t *= params.nu
    raise LineSearchFailed(
        f"{block} line search found no acceptable step within {params.max_backtracks} backtracks"
    )


def dual_update(lam, step, beta, residual):
    """Scaled multiplier move ``lam - step * beta * residual`` (residual = A x - y)."""
    lam = as_vector(lam, name="lam")
    residual = as_vector(residual, n=lam.shape[0], name="residual")
    return lam - step * beta * residual


def _quiet_numerics(fn):
    # divergent parameter choices legitimately overflow float64; the explicit
    # isfinite checks below turn that into NumericalError instead of warnings
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*args, **kwargs)

    return wrapper


def initial_state(P, w0, params, H_x=None, H_y=None):
    """The :class:`SolverState` at ``w0`` that :func:`iterate_once` starts from.

    ``H_x`` / ``H_y`` are the Hessian models at ``w0``, given together, each an
    ``(n, n)`` matrix or the ``(n,)`` diagonal of a diagonal model; by default
    they come from :func:`~prsqp.problems.hessian_pair`, in the shapes the
    problem returns. The shape picks the metric (see the module docstring), so
    a diagonal model given as a matrix takes the dense path. The solver works
    on read-only copies of the models and of ``w0``'s arrays, so the caller's
    stay writable and no later write to them reaches the state. Both metrics
    are factored, ``ell`` / ``sigma`` doubled until each factors; the state's
    ``params`` is then a copy holding the weights used. ``params`` itself is
    never changed.

    Raises ``TypeError`` when ``params`` is no :class:`SolverParams` or ``w0``
    no :class:`~prsqp.alf.Iterate`, :class:`~prsqp.core.DimensionMismatch`
    when its sizes are not the problem's, and :class:`NumericalError` when a
    metric stays indefinite after 60 doublings.
    """
    if not isinstance(params, SolverParams):
        raise TypeError("params must be a SolverParams")
    if not isinstance(w0, Iterate):
        raise TypeError("w0 must be an Iterate")
    if w0.x.shape[0] != P.n1 or w0.y.shape[0] != P.n2:
        raise DimensionMismatch(
            f"w0 has shapes x:{w0.x.shape}, y:{w0.y.shape}; problem expects {P.n1}/{P.n2}"
        )
    if (H_x is None) != (H_y is None):
        raise TypeError("give both Hessian models or neither")
    w = Iterate(w0.x.copy(), w0.y.copy(), w0.lam.copy())
    d_y_prev = np.zeros(P.n2)
    _read_only(w.x, w.y, w.lam, d_y_prev)
    if H_x is None:
        H_x, H_y = hessian_pair(P, w.x, w.y)
    params, metric_x, metric_y = _metrics(P, params, _own(H_x, None), _own(H_y, None))
    eta_y = spectral_norm(metric_y.model)  # a 1-D model's entries are its eigenvalues
    return SolverState(
        P, params, 0, w, d_y_prev, PointEval(P, w.x), YPointEval(P, w.y), None, metric_x, metric_y, eta_y
    )


@_quiet_numerics
def iterate_once(state, keep_internals=False):
    """One full iteration from the :class:`SolverState` ``state``; returns an :class:`IterationOutcome`.

    Both block steps solve in the state's factored metrics, and the line
    searches start from its ``L_beta`` and its records of ``w.x`` and ``w.y``.
    The Hessian models are then refreshed at ``w_{k+1}``: a metric whose
    refreshed model is exactly equal to its model is kept, and any other is
    factored afresh, its weight doubled until it factors (module docstring,
    step 6). ``eta_y`` grows only with a new y-model. The record's ``L_hat``
    is the merit value with the state's curvature bound
    ``eta_y + beta + sigma``, NaN when the problem has no ``lipschitz_g``.
    ``keep_internals`` attaches the per-block gradients, directions and metric
    quadratic forms to the outcome for invariant checks.

    Raises :class:`LineSearchFailed` or :class:`NumericalError` upward.
    """
    t_start = time.perf_counter()
    P, params, w = state.P, state.params, state.w
    beta = params.beta
    x_eval, y_eval = state.x_eval, state.y_eval
    metric_x, metric_y = state.metric_x, state.metric_y

    # ----- x block: model step in the state's metric, extrapolation, Armijo
    gx = grad_alf(P, w, beta, x_eval, y_eval).gx
    if not np.isfinite(gx).all():
        raise NumericalError("non-finite x-gradient")
    x_tilde = w.x - metric_x.solve(gx)
    if not np.isfinite(x_tilde).all():
        raise NumericalError("x-subproblem produced non-finite values")
    d_x = hybrid_accelerate(x_tilde, w.x, params.alpha)
    search_x = line_search(P, w, d_x, metric_x, params, "x", L0=state.L_beta, x_eval=x_eval, y_eval=y_eval)
    t_x, bt_x = search_x
    x_eval = search_x.x_eval  # the accepted trial: x_{k+1} with A x_{k+1} and f(x_{k+1})
    x_next = x_eval.x

    # ----- first dual update on the mixed residual A x_{k+1} - y_k
    residual_mid = x_eval.Ax - w.y
    lam_half = dual_update(w.lam, params.r, beta, residual_mid)

    # ----- y block at the updated x and half-step multiplier
    gy = y_eval.grad_g + lam_half - beta * residual_mid
    if not np.isfinite(gy).all():
        raise NumericalError("non-finite y-gradient")
    y_tilde = w.y - metric_y.solve(gy)
    if not np.isfinite(y_tilde).all():
        raise NumericalError("y-subproblem produced non-finite values")
    d_y = hybrid_accelerate(y_tilde, w.y, params.alpha)
    mid = Iterate(x_next, w.y, lam_half)
    search_y = line_search(P, mid, d_y, metric_y, params, "y", x_eval=x_eval, y_eval=y_eval)
    t_y, bt_y = search_y
    y_eval = search_y.y_eval  # the accepted trial: y_{k+1} with g(y_{k+1})
    y_next = y_eval.y

    # ----- second dual update on the full new residual
    lam_next = dual_update(lam_half, params.s, beta, x_eval.Ax - y_next)
    if not (np.isfinite(x_next).all() and np.isfinite(y_next).all() and np.isfinite(lam_next).all()):
        raise NumericalError("iteration produced non-finite iterate")
    _read_only(x_next, y_next, lam_next, d_y)
    w_next = Iterate(x_next, y_next, lam_next)

    # ----- refresh the second-order model, keeping both metrics factorable
    H_x, H_y = hessian_pair(P, x_next, y_next)
    H_x, H_y = _own(H_x, metric_x), _own(H_y, metric_y)
    params_next, metric_x_next, metric_y_next = _metrics(P, params, H_x, H_y, metric_x, metric_y)
    eta_y = state.eta_y if H_y is metric_y.model else max(state.eta_y, spectral_norm(H_y))

    L_beta = eval_alf(P, w_next, beta, x_eval, y_eval)
    state_next = SolverState(
        P, params_next, state.k + 1, w_next, d_y, x_eval, y_eval, L_beta, metric_x_next, metric_y_next, eta_y
    )
    if P.lipschitz_g is not None:
        L_hat = eval_merit_hat(P, state_next, params, state.eta_y + beta + params.sigma, L_beta=L_beta)
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

    internals = None
    if keep_internals:
        internals = dict(
            gx=gx,
            d_x=d_x,
            quad_x=metric_x.quad(d_x),
            gx_dot_dx=float(gx @ d_x),
            model_residual_x=float(np.abs(gx + metric_x.matvec(x_tilde - w.x)).max()),
            x_tilde=x_tilde,
            gy=gy,
            d_y=d_y,
            quad_y=metric_y.quad(d_y),
            gy_dot_dy=float(gy @ d_y),
            model_residual_y=float(np.abs(gy + metric_y.matvec(y_tilde - w.y)).max()),
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
    ``max(kkt.total, kkt.composite)`` (see :func:`~prsqp.diagnostics.kkt_residual`)
    is at most the absolute ``params.tol_kkt``, so a small step away from a
    stationary point does not end the run; a residual with a NaN part never
    passes. It stops with IterLimit after ``max_iter`` iterations, and with
    LineSearchFailed / NumericalError when building the state or an iteration
    raises (captured, not propagated; so is such an error raised by
    ``callback``). The caller's ``params`` and ``w0`` are never changed: a
    repaired weight lives in the states, and the result reports the last
    state's weights. ``callback``, when given, receives each
    :class:`IterationOutcome` (with internals attached). The result is
    ``theory_supported`` when ``alpha < 1/rho - 1``. Errors in the inputs propagate.
    """
    trace: List[StepRecord] = []
    state = None
    try:
        state = initial_state(P, w0, params)  # raises TypeError before params is read
        status, reason = SolveStatus.ITER_LIMIT, f"max_iter: {params.max_iter} iterations"
        for _ in range(params.max_iter):
            out = iterate_once(state, keep_internals=callback is not None)
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
    except (NumericalError, NotPositiveDefinite) as exc:
        status, reason = SolveStatus.NUMERICAL_ERROR, str(exc)
    last = params if state is None else state.params
    return SolveResult(
        final=w0 if state is None else state.w,
        status=status,
        trace=trace,
        theory_supported=bool(params.alpha < 1.0 / params.rho - 1.0),
        stop_reason=reason,
        ell=last.ell,
        sigma=last.sigma,
    )
