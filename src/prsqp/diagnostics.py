"""Certificates and theory constants for the splitting solver.

* :func:`kkt_residual` -- first-order residuals at an iterate, including the
  convention-independent composite certificate ``||grad f(x) + A^T grad g(A x)||``.
* :func:`spectral_bounds` -- curvature bounds of the two subproblem metrics
  (from the eigenvalues of the current Hessian models).
* :func:`compute_gamma` -- the uniform Armijo step floor.
* :func:`compute_deltas` -- per-block merit decrease margins; both positive
  certifies monotone merit descent for the chosen dual steps.
* :func:`suggest_params` -- two feasible parameter recipes: all-ascent
  (``s = 1``) and all-descent (``s = -0.5``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .alf import PointEval, YPointEval
from .core import _eigenvalues
from .problems import composite_gradient, hessian_pair


@dataclass
class KktResidual:
    """Sup-norm first-order residuals at ``(x, y, lam)``.

    ``stat_x = ||grad f(x) - A^T lam||``, ``stat_y = ||grad g(y) + lam||``,
    ``feas = ||A x - y||``, ``total = max`` of those three (NaN if any of
    them is NaN); ``composite`` is ``||grad f(x) + A^T grad g(A x)||``, which
    certifies stationarity of ``f + g o A`` regardless of multiplier
    conventions.
    """

    stat_x: float
    stat_y: float
    feas: float
    composite: float
    total: float


def _max_or_nan(*values):
    # Python's max keeps its running maximum when a comparison with NaN is
    # false, so it drops a NaN that is not its first argument; a residual
    # with a NaN part must not pass a tolerance test
    return math.nan if any(map(math.isnan, values)) else max(values)


def kkt_residual(P, w, x_eval=None, y_eval=None):
    """First-order residuals of the split problem at the iterate ``w``.

    ``x_eval`` is the :class:`~prsqp.alf.PointEval` of ``w.x`` on ``P`` when
    the caller keeps one; ``A x`` and ``grad f(x)`` are read from it.
    ``y_eval`` is the :class:`~prsqp.alf.YPointEval` of ``w.y`` likewise, for
    ``grad g(y)``.
    """
    at = PointEval(P, w.x) if x_eval is None else x_eval
    at_y = YPointEval(P, w.y) if y_eval is None else y_eval
    stat_x = float(np.abs(at.grad_f - P.apply_At(w.lam)).max())
    stat_y = float(np.abs(at_y.grad_g + w.lam).max())
    feas = float(np.abs(at.Ax - w.y).max())
    composite = float(np.abs(composite_gradient(P, at)).max())
    return KktResidual(
        stat_x=stat_x,
        stat_y=stat_y,
        feas=feas,
        composite=composite,
        total=_max_or_nan(stat_x, stat_y, feas),
    )


@dataclass
class SpectralBounds:
    """Curvature data of the two metrics for given Hessian models.

    ``eta_*`` bound ``||H_*||``, ``lambda_lo_*`` bound the smallest eigenvalue
    from below, ``eta1_* > 0`` are the metric lower bounds and ``eta2_*`` the
    matching upper bounds.
    """

    eta_x: float
    eta_y: float
    lambda_lo_x: float
    lambda_lo_y: float
    eta1_x: float
    eta1_y: float
    eta2_x: float
    eta2_y: float


def spectral_bounds(P, params, H_x, H_y):
    """Metric curvature bounds for the models ``(H_x, H_y)`` under ``params``.

    ``eta1_x = lambda_lo_x + beta lambda_min(A^T A) + ell`` and
    ``eta1_y = lambda_lo_y + beta + sigma`` must come out positive (else
    ``ValueError``); ``eta2_*`` add the norms instead, with
    ``||A^T A|| = lambda_max(A^T A)`` as ``A^T A`` is PSD. ``eta_*`` and
    ``lambda_lo_*`` are the largest ``|eigenvalue|`` and the smallest
    eigenvalue of each model.
    """
    return _bounds(P, params, _spectrum(H_x), _spectrum(H_y))


def _spectrum(H):
    # (||H||, lambda_min(H)) of a model, from one eigendecomposition
    eigs = _eigenvalues(H)
    return float(np.max(np.abs(eigs))), float(eigs[0])


def _bounds(P, params, spectrum_x, spectrum_y):
    # spectral_bounds from the models' spectra
    (eta_x, lo_x), (eta_y, lo_y) = spectrum_x, spectrum_y
    eta1_x = lo_x + params.beta * P.min_eig_AtA + params.ell
    eta1_y = lo_y + params.beta + params.sigma
    if eta1_x <= 0 or eta1_y <= 0:
        raise ValueError(
            f"metric lower bounds must be positive, got eta1_x = {eta1_x}, eta1_y = {eta1_y}; "
            "increase ell / sigma"
        )
    return SpectralBounds(
        eta_x=eta_x,
        eta_y=eta_y,
        lambda_lo_x=lo_x,
        lambda_lo_y=lo_y,
        eta1_x=eta1_x,
        eta1_y=eta1_y,
        eta2_x=eta_x + params.beta * P.max_eig_AtA + params.ell,
        eta2_y=eta_y + params.beta + params.sigma,
    )


_RHO, _NU = 0.4, 0.6  # the line search's Armijo rule: the largest t = _NU^i lowering L_beta by _RHO t d^T Hcal d


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


def compute_gamma(P, params, bounds):
    """Uniform lower bound on every accepted Armijo step:

    ``gamma = nu * min(1, c eta1_x / (L_f + beta ||A^T A||), c eta1_y / (L_g + beta))``

    with ``c = 1/(1 + alpha) - rho``, the line search's ``rho = 0.4, nu = 0.6``
    and ``||A^T A|| = lambda_max(A^T A)`` (``P.max_eig_AtA``). Requires both
    Lipschitz constants; when ``c <= 0`` (acceleration beyond the supported
    range) the floor degenerates, which is reported as 0 with a warning.
    """
    if P.lipschitz_f is None or P.lipschitz_g is None:
        raise ValueError("compute_gamma needs lipschitz_f and lipschitz_g on the problem")
    if outside := _outside_range(params.alpha):
        warnings.warn(f"step floor degenerates: {outside}; reporting gamma = 0", stacklevel=2)
        return 0.0
    c = _floor_factor(params.alpha)
    return _NU * min(
        1.0,
        c * bounds.eta1_x / (P.lipschitz_f + params.beta * P.max_eig_AtA),
        c * bounds.eta1_y / (P.lipschitz_g + params.beta),
    )


def compute_deltas(P, params, bounds, gamma):
    """Per-block merit decrease margins ``(delta_x, delta_y)``, at ``rho = 0.4``:

    ``delta_x = rho gamma eta1_x - 6 (1 - s)^2 beta lambda_max(A^T A) / |r + s|``
    ``delta_y = rho gamma eta1_y
                - (6 / (|r + s| beta)) (L_g^2 + (1 + s^2) beta^2 + 2 (eta2_y / (1 + alpha))^2)
                - |r s| beta / |r + s|``

    Both positive certifies a monotone merit decrease of at least
    ``delta_x ||d_x||^2 + delta_y ||d_y||^2`` per iteration. A square past
    float range raises ``OverflowError`` naming the margins.
    """
    if P.lipschitz_g is None:
        raise ValueError("compute_deltas needs lipschitz_g on the problem")
    r, s, beta, alpha = params.r, params.s, params.beta, params.alpha
    rs = abs(r + s)
    if rs == 0:
        raise ValueError("decrease margins undefined for r + s = 0")
    try:
        delta_x = _RHO * gamma * bounds.eta1_x - 6.0 * (1.0 - s) ** 2 * beta * P.max_eig_AtA / rs
        curvature = P.lipschitz_g**2 + (1.0 + s * s) * beta * beta + 2.0 * (bounds.eta2_y / (1.0 + alpha)) ** 2
    except OverflowError:
        raise OverflowError("decrease margins delta_x, delta_y overflow float range in a squared term") from None
    delta_y = _RHO * gamma * bounds.eta1_y - (6.0 / (rs * beta)) * curvature - abs(r * s) * beta / rs
    return delta_x, delta_y


def classify_regime(r, s):
    """Dual-update regime: "Ascent" (both steps positive), "Descent" (both negative), else "Mixed"."""
    if r > 0 and s > 0:
        return "Ascent"
    if r < 0 and s < 0:
        return "Descent"
    return "Mixed"


@dataclass
class DiagnosticsReport:
    """Step floor, decrease margins, regime and curvature bounds for one configuration."""

    gamma: float
    delta_x: float
    delta_y: float
    regime: str
    margins_ok: bool
    bounds: SpectralBounds


def diagnostics_report(P, params):
    """Assemble the full report for ``params`` at the Hessian models at ``x = 0``, ``y = 0``."""
    H_x, H_y = hessian_pair(P, np.zeros(P.n1), np.zeros(P.n2))
    bounds = spectral_bounds(P, params, H_x, H_y)
    gamma = compute_gamma(P, params, bounds)
    delta_x, delta_y = compute_deltas(P, params, bounds, gamma)
    return DiagnosticsReport(
        gamma=gamma,
        delta_x=delta_x,
        delta_y=delta_y,
        regime=classify_regime(params.r, params.s),
        margins_ok=bool(delta_x > 0 and delta_y > 0),
        bounds=bounds,
    )


_RECIPE_MARGIN = 0.1  # each strict bound is met with a factor 1 + margin; floors at margin * beta
_RECIPE_ROUNDS = 50  # fixed-point rounds of the coupled bounds on ell, sigma and gamma


def suggest_params(direction, P, base=None):
    """Feasible dual steps and proximal weights with certified positive margins.

    Two recipes, each with a fixed second dual step ``s``, of which ``r``
    takes the sign: ``direction`` ``"alda"`` (both dual updates ascent) has
    ``s = 1``, and ``"aldd"`` (both descent) has ``s = -0.5``, so
    ``r + s < 0``. By the sign rule (module docstring of :mod:`prsqp.solver`)
    the fixed points of an ``"aldd"`` run repel, so its certificate is one of
    merit decrease per iteration, not of convergence. ``base`` supplies
    ``alpha, beta`` and the loop controls (defaults otherwise); the
    returned :class:`SolverParams` keeps those and replaces
    ``ell, sigma, r, s``. The curvature is that of the Hessian models at
    ``x = 0``, ``y = 0``.

    The strict bounds on ``ell`` and ``sigma`` are coupled to the step floor
    ``gamma``, which itself depends on ``ell`` and ``sigma``; the recipe
    iterates the bound system to a fixed point (each strict inequality realized
    with a 10% margin, positive floors at ``0.1 beta``), raising ``ValueError``
    if it does not settle, and then verifies ``delta_x, delta_y > 0`` via
    :func:`compute_deltas`, raising ``ValueError`` if certification fails. At
    ``s = 1`` the bound on ``ell`` is the starting one, as ``(1 - s)^2 = 0``.
    The coupling enters through the spectral range of ``A^T A``, with
    ``||A^T A|| = lambda_max(A^T A)``. A square past float range raises
    ``OverflowError`` naming ``r``.
    """
    if direction not in ("alda", "aldd"):
        raise ValueError(f"direction must be 'alda' or 'aldd', got {direction!r}")
    if P.lipschitz_f is None or P.lipschitz_g is None:
        raise ValueError("suggest_params needs both Lipschitz constants on the problem")
    from .solver import SolverParams  # solver imports this module

    base = base if base is not None else SolverParams()
    alpha, beta = base.alpha, base.beta
    if outside := _outside_range(alpha):
        raise ValueError(f"recipes need a positive step-floor factor: {outside}")
    s = 1.0 if direction == "alda" else -0.5

    spectrum_x, spectrum_y = map(_spectrum, hessian_pair(P, np.zeros(P.n1), np.zeros(P.n2)))
    (_, lo_x), (_, lo_y) = spectrum_x, spectrum_y

    factor = 1.0 + _RECIPE_MARGIN
    floor = _RECIPE_MARGIN * beta
    ell = max(factor * (-lo_x - beta * P.min_eig_AtA), floor)
    sigma = max(factor * (-lo_y - beta), floor)
    dual_scale = abs(s) * beta  # sigma keeps the r-denominator rho gamma eta1_y - |s| beta positive
    for _ in range(_RECIPE_ROUNDS):
        params = replace(base, ell=ell, sigma=sigma)
        bounds = _bounds(P, params, spectrum_x, spectrum_y)
        gamma = compute_gamma(P, params, bounds)
        sigma_req = max(factor * (dual_scale / (_RHO * gamma) - lo_y - beta), floor)
        if sigma_req > sigma * (1.0 + 1e-12):
            sigma = sigma_req
            continue
        try:
            numer = 6.0 * (P.lipschitz_g * P.lipschitz_g + 2.0 * beta * beta + 2.0 * (bounds.eta2_y / (1.0 + alpha)) ** 2)
        except OverflowError:
            raise OverflowError(f"recipe dual step r overflows float range at eta2_y = {bounds.eta2_y}") from None
        r = math.copysign(1.0, s) * numer / (beta * (_RHO * gamma * bounds.eta1_y - dual_scale))
        ell_bound = -6.0 * (1.0 - s) ** 2 * beta * P.max_eig_AtA / (_RHO * gamma * (r + s)) - lo_x - beta * P.min_eig_AtA
        ell_req = max(factor * ell_bound, floor)
        if not ell_req > ell * (1.0 + 1e-12):  # a NaN requirement stops the rounds too
            break
        ell = ell_req
    else:
        raise ValueError(f"recipe did not stabilize within {_RECIPE_ROUNDS} rounds")

    params = replace(params, r=r, s=s)
    delta_x, delta_y = compute_deltas(P, params, bounds, gamma)
    if not (delta_x > 0 and delta_y > 0):
        raise ValueError(f"recipe failed to certify positive margins: delta_x = {delta_x}, delta_y = {delta_y}")
    return params
