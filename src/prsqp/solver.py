"""Hybrid-accelerated proximal splitting with SQP subproblems.

One iteration, starting from ``w_k = (x_k, y_k, lam_k)`` with current Hessian
models ``H_x, H_y``:

1. x block: solve the quadratic model of ``L_beta`` in the metric
   ``Hcal_x = H_x + beta A^T A + ell I``, extrapolate by ``alpha``, Armijo
   backtrack along ``d_x = (1 + alpha)(x_tilde - x_k)``. When the problem
   declares ``hess_f_diag`` (the diagonal of a diagonal ``hess f(x)``, an
   ``(n1,)`` array) and ``A`` is wide (``n2 < n1``), ``H_x`` is kept as that
   diagonal ``h``. While ``D = h + ell > 0``, the metric is then the diagonal
   ``D`` plus the rank-``n2`` term ``beta A^T A``: only the ``n2 x n2``
   capacitance matrix ``I / beta + A D^-1 A^T`` is factored, and ``d^T Hcal_x d``
   is ``d . (D d) + beta ||A d||^2``. Where ``h`` is zero outside fewer than
   ``n1/2`` coordinates, the capacitance matrix is the carried matrix of
   ``h = 0`` plus a correction in those coordinates' columns of ``A`` (see
   :func:`_capacitance`). Where ``D`` is not positive, the dense
   ``Hcal_x`` is formed and factored as for any other model, so ``ell`` is
   doubled exactly where the dense metric needs it (the structured one is
   positive definite whenever it is used). ``A^T A`` is formed for the first
   dense ``Hcal_x``.
2. First dual update ``lam_{k+1/2} = lam_k - r beta (A x_{k+1} - y_k)``.
3. y block at ``(x_{k+1}, lam_{k+1/2})`` in the metric
   ``Hcal_y = H_y + (beta + sigma) I``; extrapolate, backtrack. A diagonal
   ``H_y`` is kept as its diagonal ``h`` and ``Hcal_y`` as the vector
   ``D = h + beta + sigma``, which is never factored: it is rejected (and
   ``sigma`` doubled) where some ``D_i <= 0``, exactly where a Cholesky
   factorization of the matrix would fail, and a solve multiplies by
   ``1 / sqrt(D)`` twice, as the two triangular solves with its factor do.
4. Second dual update ``lam_{k+1} = lam_{k+1/2} - s beta (A x_{k+1} - y_{k+1})``.
5. Stop when the relative sup-norm step over ``(x, y, lam)`` drops to
   ``tol_step`` and the first-order residual (the larger of the split KKT
   residual and the composite residual ``||grad f(x) + A^T grad g(A x)||``)
   is at most ``tol_kkt``.
6. Refresh ``(H_x, H_y)`` at the new point, doubling ``ell`` / ``sigma`` until
   both metrics admit a Cholesky factorization (factored through LAPACK
   ``potrf``, solved through ``potrs``). These factors are carried
   into the next iteration's block steps, and a block's factor is reused,
   not rebuilt, for as long as its Hessian model stays exactly equal to the
   one it was built from and its ``ell`` / ``sigma`` has not been doubled.

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
residuals evaluate its ``grad g``. Both records are carried to the next
iteration with ``L_beta(w_{k+1})``; all three are used only when the next
iteration starts from exactly that iterate on the same problem with the same
``beta``. Then the x-gradient evaluates no ``A x``, ``grad f`` or
``grad g``, the x search and the y search's ``L_beta`` no ``g(y_k)``, and the
y step no ``grad g``. So per iteration ``g`` is evaluated at each y trial and
at ``A x_{k+1}`` (for the objective), and ``grad g`` at ``y_{k+1}`` and at
``A x_{k+1}`` (for the composite residual).
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, List, Mapping, NamedTuple, Optional

import numpy as np
from scipy.linalg import lapack

from .alf import AugmentedIterate, Iterate, PointEval, YPointEval, _alf_value, eval_alf, eval_merit_hat, grad_alf
from .core import DimensionMismatch, NotPositiveDefinite, as_vector, cholesky_spd, spectral_norm
from .diagnostics import KktResidual, kkt_residual
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


_PARAM_DEFAULTS = dict(
    rho=0.4,
    nu=0.6,
    alpha=0.0,
    beta=1.0,
    ell=5.0,
    sigma=10.0,
    r=0.1,
    s=1.0,
    max_iter=10_000,
    tol_step=1e-4,
    tol_kkt=1e-2,
    max_backtracks=60,
    relaxed_alpha=False,
)


def validate_params(params, relaxed=None):
    """Range violations of a parameter set, as human-readable strings.

    ``params`` may be a :class:`SolverParams`, any object with the same
    attributes, or a mapping (missing entries fall back to the defaults, so
    invalid combinations can be checked without constructing). ``relaxed``
    overrides the set's own ``relaxed_alpha`` flag; when true, the upper
    acceleration bound ``alpha < 1/rho - 1`` is not enforced.
    """
    if isinstance(params, Mapping):
        merged = dict(_PARAM_DEFAULTS)
        merged.update(params)
        get = merged.__getitem__
    else:
        get = lambda k: getattr(params, k, _PARAM_DEFAULTS[k])
    out = []
    rho, nu, alpha = get("rho"), get("nu"), get("alpha")
    if not 0.0 < rho < 1.0:
        out.append(f"rho must lie in (0, 1), got {rho}")
    if not 0.0 < nu < 1.0:
        out.append(f"nu must lie in (0, 1), got {nu}")
    if not -1.0 < alpha < math.inf:
        out.append(f"alpha must be finite and exceed -1, got {alpha}")
    relaxed_eff = bool(get("relaxed_alpha")) if relaxed is None else bool(relaxed)
    if not relaxed_eff and 0.0 < rho < 1.0 and not alpha < 1.0 / rho - 1.0:
        out.append(f"alpha = {alpha} is not below 1/rho - 1 = {1.0 / rho - 1.0} (set relaxed_alpha to override)")
    for name in ("beta", "ell", "sigma"):
        if not 0.0 < get(name) < math.inf:
            out.append(f"{name} must be positive and finite, got {get(name)}")
    for name in ("r", "s"):
        if not math.isfinite(get(name)):
            out.append(f"{name} must be finite, got {get(name)}")
    if get("r") + get("s") == 0.0:
        out.append(f"r + s must be nonzero, got r = {get('r')}, s = {get('s')}")
    _check_count(out, "max_iter", get("max_iter"))
    if not get("tol_step") >= 0.0:
        out.append(f"tol_step must be >= 0, got {get('tol_step')}")
    if not get("tol_kkt") >= 0.0:
        out.append(f"tol_kkt must be >= 0, got {get('tol_kkt')}")
    _check_count(out, "max_backtracks", get("max_backtracks"))
    return out


def _check_count(out, name, value):
    # a loop limit is an integer >= 1; numpy integers count, bools do not
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        out.append(f"{name} must be an integer, got {value!r}")
    elif value < 1:
        out.append(f"{name} must be >= 1, got {value}")


@dataclass
class SolverParams:
    """Algorithm parameters; ranges are enforced at construction.

    ``alpha`` must satisfy ``-1 < alpha < 1/rho - 1`` unless ``relaxed_alpha``
    is set, in which case only ``alpha > -1`` is required and runs are tagged
    as outside the supported theory. ``r`` and ``s`` are the two dual step
    scales (positive = ascent, negative = descent) with ``r + s != 0``.
    ``tol_step`` (relative) and ``tol_kkt`` (absolute) are the two tolerances
    that must both hold for :func:`run` to report Converged.
    """

    rho: float = _PARAM_DEFAULTS["rho"]
    nu: float = _PARAM_DEFAULTS["nu"]
    alpha: float = _PARAM_DEFAULTS["alpha"]
    beta: float = _PARAM_DEFAULTS["beta"]
    ell: float = _PARAM_DEFAULTS["ell"]
    sigma: float = _PARAM_DEFAULTS["sigma"]
    r: float = _PARAM_DEFAULTS["r"]
    s: float = _PARAM_DEFAULTS["s"]
    max_iter: int = _PARAM_DEFAULTS["max_iter"]
    tol_step: float = _PARAM_DEFAULTS["tol_step"]
    tol_kkt: float = _PARAM_DEFAULTS["tol_kkt"]
    max_backtracks: int = _PARAM_DEFAULTS["max_backtracks"]
    relaxed_alpha: bool = _PARAM_DEFAULTS["relaxed_alpha"]

    def __post_init__(self):
        violations = validate_params(self)
        if violations:
            raise ValueError("; ".join(violations))


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
    are the proximal weights the run ended with, which exceed the caller's
    where a metric was repaired.
    """

    final: Iterate
    status: SolveStatus
    trace: List[StepRecord] = field(default_factory=list)
    iterations: int = 0
    theory_supported: bool = True
    stop_reason: str = ""
    ell: Optional[float] = None
    sigma: Optional[float] = None


def _cho_solve(factor, b):
    # M^{-1} b through LAPACK dpotrs, for the (c, lower) factor of M from cholesky_spd
    x, info = lapack.dpotrs(factor[0], b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


class BlockMetric(NamedTuple):
    """One block's metric held as the matrix ``Hcal`` with its Cholesky factor."""

    model: np.ndarray  # the Hessian model, as returned by _own
    weight: float  # ell (x block) or sigma (y block)
    Hcal: np.ndarray
    factor: tuple  # (c, lower) pair from cholesky_spd

    def solve(self, g):
        """``Hcal^{-1} g``."""
        return _cho_solve(self.factor, g)

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
        z = _cho_solve(self.factor, self.A @ u)
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


class Carry(NamedTuple):
    """What one :func:`iterate_once` call hands to the next on the same problem.

    Both blocks' factored metrics at the refreshed Hessian models, and
    ``L_beta``, the :class:`~prsqp.alf.PointEval` of x and the
    :class:`~prsqp.alf.YPointEval` of y at the new iterate (``point`` is a
    private copy of its ``concat()``). Each part is used only while it still
    matches its inputs.
    """

    problem: object
    beta: float
    point: np.ndarray
    L_beta: float
    x_eval: PointEval
    y_eval: YPointEval
    metric_x: BlockMetric | LowRankMetric
    metric_y: BlockMetric | DiagonalMetric


class IterationOutcome(NamedTuple):
    """What :func:`iterate_once` returns.

    ``hess_x`` / ``hess_y`` are the refreshed Hessian models as read-only
    arrays: while a refreshed model stays equal to the previous one, the same
    array is returned again. Where the x-model is diagonal (see
    :func:`iterate_once`), ``hess_x`` is its diagonal, shape ``(n1,)``; a
    diagonal ``H_y`` comes back as its diagonal, shape ``(n2,)``.
    """

    state: AugmentedIterate
    record: StepRecord
    hess_x: np.ndarray
    hess_y: np.ndarray
    internals: Optional[dict]
    kkt: KktResidual  # residuals at the new iterate; ``record.kkt_inf`` is its total
    carry: Carry  # pass to the next iterate_once call to reuse its factors


_MAX_METRIC_REPAIR = 60  # doublings of ell / sigma before giving up


def _diagonal_x(P):
    # whether the x-model is kept as its diagonal, so that _metric_x may solve
    # through the capacitance matrix: P declares hess_f_diag and A is wide
    return P.hess_f_diag is not None and P.n2 < P.n1


def _is_diagonal(H):
    # a square matrix with no nonzero entry off its diagonal (counted on the
    # boolean H != 0, which numpy counts faster than floats)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        return False
    return np.count_nonzero(H != 0.0) == np.count_nonzero(H.diagonal())


def _same_model(model, H):
    # H equals the kept model exactly; a diagonal (1-D) model also equals a
    # diagonal matrix H with that diagonal
    if H is model:
        return True
    if model.ndim == 1 and H.ndim == 2:
        return np.array_equal(H.diagonal(), model) and _is_diagonal(H)
    return np.array_equal(model, H)


def _own(H, metric, diagonal=False):
    # the model the solver works with in place of the caller's H: metric.model
    # when H equals it (see _same_model), else a read-only private copy of H
    # (of its diagonal, for a diagonal matrix H when ``diagonal``). So no later
    # write to the caller's array reaches a carried factor, and equal models
    # are one array, which a factor then fits by identity.
    H = np.asarray(H)
    if metric is not None and _same_model(metric.model, H):
        return metric.model
    H = np.array(H, dtype=float)
    if diagonal and _is_diagonal(H):
        H = H.diagonal().copy()
    H.flags.writeable = False
    return H


def _scaled_eye(n, c):
    out = np.eye(n)
    out *= c
    return out


def _cholesky(M, failure):
    try:
        return cholesky_spd(M)
    except NotPositiveDefinite as exc:
        raise ProximalNotPD(f"{failure}: {exc}") from None


def _capacitance(P, D, params, cached):
    # C = I / beta + A D^-1 A^T, and the base it was assembled from (or None).
    # Where D equals ell (h = 0) outside fewer than n/2 coordinates K, C is
    # the base I / beta + A A^T / ell plus the symmetric part of
    # A_K diag(1/D_K - 1/ell) A_K^T: 2 m^2 |K| flops against m^2 n for B B^T.
    # The base is taken from ``cached`` at the same ell and beta. C depends on
    # D, ell and beta alone, so a carried metric has the bits of a fresh one.
    K = np.flatnonzero(D != params.ell)
    if 2 * K.size >= P.n1:
        B = P.A / np.sqrt(D)
        C = B @ B.T  # B B^T is computed exactly symmetric
        C.flat[:: P.n2 + 1] += 1.0 / params.beta
        return C, None
    same = isinstance(cached, LowRankMetric) and cached.weight == params.ell and cached.beta == params.beta
    if same and cached.base is not None:
        base = cached.base
    else:
        base = P.A @ P.A.T
        base /= params.ell
        base.flat[:: P.n2 + 1] += 1.0 / params.beta
    A_K = P.A[:, K]
    U = (A_K * (1.0 / D[K] - 1.0 / params.ell)) @ A_K.T
    C = U + U.T
    C *= 0.5
    C += base
    return C, base


def _metric_x(P, model, params, cached=None):
    # factored Hcal_x = H_x + beta A^T A + ell I for a model from _own; ``cached`` when it fits.
    # A diagonal model (1-D) with D = h + ell > 0 and a wide A gets a LowRankMetric.
    if cached is not None and cached.model is model and cached.weight == params.ell:
        return cached
    if model.ndim == 1:
        D = model + params.ell
        if P.n2 < P.n1 and (D > 0.0).all():
            C, base = _capacitance(P, D, params, cached)
            factor = _cholesky(C, f"x-metric capacitance matrix not positive definite at ell = {params.ell}")
            return LowRankMetric(model, params.ell, D, P.A, params.beta, base, factor)
    # (model + beta AtA) + ell I summed in place, ell on the diagonal only, so
    # that fewer n1 x n1 arrays are live while the previous iteration's metric
    # is still held
    Hcal = params.beta * P.AtA
    if model.ndim == 1:
        Hcal.flat[:: P.n1 + 1] += model
    else:
        Hcal += model
    Hcal.flat[:: P.n1 + 1] += params.ell
    factor = _cholesky(Hcal, f"x-metric not positive definite at ell = {params.ell}")
    return BlockMetric(model, params.ell, Hcal, factor)


def _metric_y(P, model, params, cached=None):
    # factored Hcal_y = H_y + (beta + sigma) I for a model from _own; ``cached`` when it fits.
    # A diagonal model (1-D) gets a DiagonalMetric; it is rejected where the
    # Cholesky factorization of the dense metric would fail.
    if cached is not None and cached.model is model and cached.weight == params.sigma:
        return cached
    if model.ndim == 1:
        D = model + (params.beta + params.sigma)
        if not (D > 0.0).all():
            raise ProximalNotPD(f"y-metric not positive definite at sigma = {params.sigma}")
        return DiagonalMetric(model, params.sigma, D, 1.0 / np.sqrt(D))
    Hcal = _scaled_eye(P.n2, params.beta + params.sigma)
    Hcal += model
    factor = _cholesky(Hcal, f"y-metric not positive definite at sigma = {params.sigma}")
    return BlockMetric(model, params.sigma, Hcal, factor)


def _x_step(P, w, x_eval, y_eval, H_x, params, cached=None):
    # quadratic-model minimizer, its factored metric and the gradient it used
    g = grad_alf(P, w, params.beta, x_eval, y_eval).gx
    if not np.isfinite(g).all():
        raise NumericalError("non-finite x-gradient")
    metric = _metric_x(P, _own(H_x, cached, _diagonal_x(P)), params, cached)
    return w.x - metric.solve(g), metric, g


def _y_step(P, x_eval, y_eval, lam_half, H_y, params, cached=None):
    y = y_eval.y
    residual = x_eval.Ax - y
    g = y_eval.grad_g + lam_half - params.beta * residual
    if not np.isfinite(g).all():
        raise NumericalError("non-finite y-gradient")
    metric = _metric_y(P, _own(H_y, cached, diagonal=True), params, cached)
    return y - metric.solve(g), metric, g


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

    where ``Hcal`` is the block's metric, as a matrix or as a metric built by
    :func:`iterate_once` (which supplies ``d^T Hcal d`` through ``quad``), and
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


def _repair_metric(build, bump, limit=_MAX_METRIC_REPAIR):
    # call build() until it stops raising, doubling via bump(); returns build's value
    for attempt in range(limit + 1):
        try:
            return build()
        except NotPositiveDefinite:
            if attempt == limit:
                raise NumericalError(
                    f"metric stayed indefinite after {limit} proximal-weight doublings"
                ) from None
            bump()


@_quiet_numerics
def iterate_once(P, state, H_x, H_y, params, k=0, eta2_y=None, keep_internals=False, carry=None):
    """One full iteration from ``state``; returns an :class:`IterationOutcome`.

    ``params`` is mutated in place when a metric needs repair (``ell`` or
    ``sigma`` doubles) -- :func:`run` passes a private copy. ``H_x`` / ``H_y``
    are the Hessian models at ``state.w``. On a problem that declares
    ``hess_f_diag`` and has ``n2 < n1`` the x-model is kept as its diagonal: a
    diagonal ``H_x`` may be given as a matrix or as its ``(n1,)`` diagonal, and
    ``hess_x`` comes back as the diagonal. The y-model is kept the same way
    whenever ``H_y`` is diagonal, on every problem. ``eta2_y`` is the
    uniform y-curvature bound used for the merit column of the trace record
    (``L_hat`` is NaN when it is not supplied). ``keep_internals`` attaches the
    per-block gradients, directions and metric quadratic forms to the outcome
    for invariant checks.

    ``carry`` is the ``carry`` of the previous outcome on the same problem.
    A block then reuses the factor built at the previous refresh when its
    model (``H_x`` / ``H_y``) is exactly equal to the one the factor was built
    from and its ``ell`` / ``sigma`` is unchanged. When ``state.w`` is that
    outcome's iterate, the iteration also reuses its ``L_beta`` and the
    records of its x (``A x`` and ``grad f(x)``) and of its y (``g(y)`` and
    ``grad g(y)``); anything else is computed afresh, as without ``carry``.
    The result is the same either way.

    Raises :class:`LineSearchFailed` or :class:`NumericalError` upward.
    """
    t_start = time.perf_counter()
    w = state.w
    beta = params.beta
    if carry is not None and (carry.problem is not P or carry.beta != beta):
        carry = None
    if carry is not None and np.array_equal(carry.point, w.concat()):
        L0, x_eval, y_eval = carry.L_beta, carry.x_eval, carry.y_eval
    else:
        L0, x_eval, y_eval = None, PointEval(P, w.x), YPointEval(P, w.y)

    # ----- x block: model step, extrapolation, Armijo
    def bump_ell():
        params.ell *= 2.0

    metric_x = carry.metric_x if carry is not None else None
    x_tilde, metric_x, gx = _repair_metric(
        lambda: _x_step(P, w, x_eval, y_eval, H_x, params, metric_x), bump_ell
    )
    if not np.isfinite(x_tilde).all():
        raise NumericalError("x-subproblem produced non-finite values")
    d_x = hybrid_accelerate(x_tilde, w.x, params.alpha)
    search_x = line_search(P, w, d_x, metric_x, params, "x", L0=L0, x_eval=x_eval, y_eval=y_eval)
    t_x, bt_x = search_x
    x_eval = search_x.x_eval  # the accepted trial: x_{k+1} with A x_{k+1} and f(x_{k+1})
    x_next = x_eval.x

    # ----- first dual update on the mixed residual A x_{k+1} - y_k
    lam_half = dual_update(w.lam, params.r, beta, x_eval.Ax - w.y)

    # ----- y block at the updated x and half-step multiplier
    def bump_sigma():
        params.sigma *= 2.0

    metric_y = carry.metric_y if carry is not None else None
    y_tilde, metric_y, gy = _repair_metric(
        lambda: _y_step(P, x_eval, y_eval, lam_half, H_y, params, metric_y), bump_sigma
    )
    if not np.isfinite(y_tilde).all():
        raise NumericalError("y-subproblem produced non-finite values")
    d_y = hybrid_accelerate(y_tilde, w.y, params.alpha)
    mid = Iterate(x_next, w.y, lam_half)
    search_y = line_search(P, mid, d_y, metric_y, params, "y", x_eval=x_eval, y_eval=y_eval)
    t_y, bt_y = search_y
    y_eval = search_y.y_eval  # the accepted trial: y_{k+1} with g(y_{k+1})
    y_next = y_eval.y

    # ----- second dual update on the full new residual
    residual_new = x_eval.Ax - y_next
    lam_next = dual_update(lam_half, params.s, beta, residual_new)
    w_next = Iterate(x_next, y_next, lam_next)
    point_next = w_next.concat()
    if not np.isfinite(point_next).all():
        raise NumericalError("iteration produced non-finite iterate")

    # ----- refresh the second-order model, keeping both metrics factorable;
    # these factors are the next iteration's, unless its models differ
    H_x_next, H_y_next = hessian_pair(P, x_next, y_next, _diagonal_x(P))
    H_x_next, H_y_next = _own(H_x_next, metric_x), _own(H_y_next, metric_y, diagonal=True)
    metric_x_next = _repair_metric(lambda: _metric_x(P, H_x_next, params, metric_x), bump_ell)
    metric_y_next = _repair_metric(lambda: _metric_y(P, H_y_next, params, metric_y), bump_sigma)

    state_next = AugmentedIterate(w=w_next, d_y_prev=d_y)

    L_beta = eval_alf(P, w_next, beta, x_eval, y_eval)
    if eta2_y is not None and P.lipschitz_g is not None:
        L_hat = eval_merit_hat(P, state_next, params, eta2_y, L_beta=L_beta)
    else:
        L_hat = float("nan")
    kkt = kkt_residual(P, w_next, x_eval, y_eval)
    record = StepRecord(
        k=k,
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
    carry_next = Carry(P, beta, point_next, L_beta, x_eval, y_eval, metric_x_next, metric_y_next)
    return IterationOutcome(state_next, record, H_x_next, H_y_next, internals, kkt, carry_next)


@_quiet_numerics
def run(P, w0, params, callback: Optional[Callable[[IterationOutcome], None]] = None):
    """Drive :func:`iterate_once` from ``w0`` until convergence or breakdown.

    Stops with status Converged when the relative sup-norm step
    ``||w_{k+1} - w_k||_inf / max(1, ||w_k||_inf)`` falls to ``params.tol_step``
    and, at the same iterate, the first-order residual
    ``max(kkt.total, kkt.composite)`` (see :func:`~prsqp.diagnostics.kkt_residual`)
    is at most the absolute ``params.tol_kkt``, so a small step away from a
    stationary point does not end the run. It stops with IterLimit after
    ``max_iter`` iterations, and with LineSearchFailed / NumericalError when
    an iteration raises (captured, not propagated). The
    caller's ``params`` are never mutated; positive-definiteness repair acts on
    a private copy. The merit column of the trace uses the running maximum of
    ``||H_y||`` for the uniform curvature bound, read off the diagonal of a
    diagonal model and estimated again only when :func:`iterate_once` hands
    back a new ``hess_y`` array (after the first iteration, and then when the
    model changes). Each iteration gets
    the previous outcome's ``carry``, so a block's metric is factored only
    when its Hessian model or its ``ell`` / ``sigma`` changed (see
    :func:`iterate_once`). ``callback``, when given, receives each
    :class:`IterationOutcome` (with internals attached).
    """
    violations = validate_params(params)
    if violations:
        raise ValueError("; ".join(violations))
    if not isinstance(w0, Iterate):
        raise TypeError("w0 must be an Iterate")
    if w0.x.shape[0] != P.n1 or w0.y.shape[0] != P.n2:
        raise DimensionMismatch(
            f"w0 has shapes x:{w0.x.shape}, y:{w0.y.shape}; problem expects {P.n1}/{P.n2}"
        )
    params = replace(params)
    theory_supported = not validate_params(params, relaxed=False)

    state = AugmentedIterate(w=w0, d_y_prev=np.zeros(P.n2))
    H_x, H_y = hessian_pair(P, w0.x, w0.y, _diagonal_x(P))
    eta_y = spectral_norm(_own(H_y, None, diagonal=True))  # off the diagonal of a diagonal model
    carry = None
    prev = w0.concat()
    trace: List[StepRecord] = []
    status = SolveStatus.ITER_LIMIT
    reason = f"max_iter: {params.max_iter} iterations"
    for k in range(params.max_iter):
        try:
            out = iterate_once(
                P,
                state,
                H_x,
                H_y,
                params,
                k=k,
                eta2_y=eta_y + params.beta + params.sigma,
                keep_internals=callback is not None,
                carry=carry,
            )
        except LineSearchFailed as exc:
            status, reason = SolveStatus.LINE_SEARCH_FAILED, str(exc)
            break
        except (NumericalError, NotPositiveDefinite) as exc:
            status, reason = SolveStatus.NUMERICAL_ERROR, str(exc)
            break
        if out.hess_y is not H_y:  # an unchanged model comes back as the same array
            eta_y = max(eta_y, spectral_norm(out.hess_y))
        state, H_x, H_y, carry = out.state, out.hess_x, out.hess_y, out.carry
        trace.append(out.record)
        if callback is not None:
            callback(out)
        residual = max(out.kkt.total, out.kkt.composite)
        if residual <= params.tol_kkt:
            step = float(np.abs(carry.point - prev).max()) / max(1.0, float(np.abs(prev).max()))
            if step <= params.tol_step:
                status = SolveStatus.CONVERGED
                reason = (
                    f"tol_step and tol_kkt: relative step {step:.3g} <= {params.tol_step}, "
                    f"first-order residual {residual:.3g} <= {params.tol_kkt}"
                )
                break
        prev = carry.point
    return SolveResult(
        final=state.w,
        status=status,
        trace=trace,
        iterations=len(trace),
        theory_supported=theory_supported,
        stop_reason=reason,
        ell=params.ell,
        sigma=params.sigma,
    )
