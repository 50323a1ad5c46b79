"""Augmented Lagrangian of the split problem and the merit function built on it.

For the split ``min f(x) + g(y) s.t. A x = y`` with multiplier ``lam`` and
penalty ``beta > 0``,

    ``L_beta(x, y, lam) = f(x) + g(y) - lam^T (A x - y) + (beta/2) ||A x - y||^2``.

All partial gradients here are the calculus gradients of this definition, so a
stationary point satisfies ``grad f(x) = A^T lam``, ``grad g(y) = -lam`` and
``A x = y``. The merit function :func:`eval_merit_hat` augments ``L_beta`` with
a weighted square of the previous y-direction; the solver drives it monotonically
downward when the dual step sizes admit positive decrease margins.

A :class:`PointEval` keeps ``A x``, ``f(x)`` and ``grad f(x)`` of one x-point
once computed, and a :class:`YPointEval` keeps ``g(y)`` and ``grad g(y)`` of one
y-point, so that every quantity derived at that point shares them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import as_vector


@dataclass(frozen=True)
class Iterate:
    """Primal-dual triple ``(x, y, lam)``; ``lam`` lives in y-space."""

    x: np.ndarray
    y: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", as_vector(self.x, name="x"))
        object.__setattr__(self, "y", as_vector(self.y, name="y"))
        object.__setattr__(self, "lam", as_vector(self.lam, n=self.y.shape[0], name="lam"))

    def concat(self):
        return np.concatenate([self.x, self.y, self.lam])


@dataclass(frozen=True)
class AugmentedIterate:
    """An iterate together with the previous accepted y-direction (merit state)."""

    w: Iterate
    d_y_prev: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "d_y_prev", as_vector(self.d_y_prev, n=self.w.y.shape[0], name="d_y_prev")
        )


class PointEval:
    """The point ``x`` of problem ``P`` with ``A x``, ``f(x)`` and ``grad f(x)``
    evaluated on first use and kept.

    The values are what ``P.apply_A(x)``, ``float(P.eval_f(x))`` and
    ``P.grad_f(x)`` return; neither ``x`` nor the kept arrays may be written to
    while the record is in use. :func:`eval_alf`, :func:`grad_alf`,
    :func:`~prsqp.solver.line_search`, :func:`~prsqp.diagnostics.kkt_residual`,
    :func:`~prsqp.problems.composite_objective` and
    :func:`~prsqp.problems.composite_gradient` accept it.
    """

    def __init__(self, P, x):
        self.P = P
        self.x = x

    @cached_property
    def Ax(self):
        return self.P.apply_A(self.x)

    @cached_property
    def f(self):
        return float(self.P.eval_f(self.x))

    @cached_property
    def grad_f(self):
        return self.P.grad_f(self.x)


class YPointEval:
    """The point ``y`` of problem ``P`` with ``g(y)`` and ``grad g(y)`` evaluated
    on first use and kept.

    The values are what ``float(P.eval_g(y))`` and ``P.grad_g(y)`` return, under
    the same rules as :class:`PointEval`, and the same functions accept it.
    """

    def __init__(self, P, y):
        self.P = P
        self.y = y

    @cached_property
    def g(self):
        return float(self.P.eval_g(self.y))

    @cached_property
    def grad_g(self):
        return self.P.grad_g(self.y)


@dataclass(frozen=True)
class AlfGradient:
    """Partial gradients of ``L_beta`` in ``x``, ``y`` and ``lam``."""

    gx: np.ndarray
    gy: np.ndarray
    glam: np.ndarray


def _alf_value(f, g, lam, residual, beta):
    """``L_beta`` from its parts: ``f(x)``, ``g(y)``, ``lam`` and ``residual = A x - y``.

    Every value of ``L_beta`` in the package is summed here, in one operand order.
    """
    return f + g - float(lam.dot(residual)) + 0.5 * beta * float(residual.dot(residual))


def eval_alf(P, w, beta, x_eval=None, y_eval=None):
    """Value of the augmented Lagrangian at ``w``.

    ``x_eval`` is the :class:`PointEval` of ``w.x`` on ``P`` when the caller
    keeps one; ``A x`` and ``f(x)`` are read from it. ``y_eval`` is the
    :class:`YPointEval` of ``w.y`` likewise, for ``g(y)``.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    at = PointEval(P, w.x) if x_eval is None else x_eval
    at_y = YPointEval(P, w.y) if y_eval is None else y_eval
    return _alf_value(at.f, at_y.g, w.lam, at.Ax - w.y, beta)


def grad_alf(P, w, beta, x_eval=None, y_eval=None):
    """All three partial gradients of ``L_beta`` at ``w``.

    With ``residual = A x - y`` and the shifted multiplier
    ``lam_shift = lam - beta * residual``:

        ``gx =  grad f(x) - A^T lam_shift``
        ``gy =  grad g(y) + lam_shift``
        ``glam = -residual``

    ``x_eval`` and ``y_eval`` are the records of ``w.x`` and ``w.y``, as in
    :func:`eval_alf`; ``grad g(y)`` is read from ``y_eval``.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    at = PointEval(P, w.x) if x_eval is None else x_eval
    at_y = YPointEval(P, w.y) if y_eval is None else y_eval
    residual = at.Ax - w.y
    lam_shift = w.lam - beta * residual
    return AlfGradient(
        gx=at.grad_f - P.apply_At(lam_shift),
        gy=at_y.grad_g + lam_shift,
        glam=-residual,
    )


def eval_merit_hat(P, what, params, eta2_y, L_beta=None):
    """Merit value at the augmented iterate ``what = (w, d_y_prev)``.

    ``L_beta(w)`` plus ``6 / (|r + s| beta) * (L_g^2 + beta^2 + (eta2_y / (1 + alpha))^2)``
    times ``||d_y_prev||^2``, where ``L_g`` is the gradient Lipschitz constant of
    ``g`` and ``eta2_y`` the uniform upper curvature bound of the y-subproblem
    metric. Requires ``lipschitz_g`` on the problem and ``r + s != 0``.
    ``L_beta`` is the value of ``L_beta(w)`` when the caller already has it;
    it is evaluated otherwise. A square past float range in the weight raises
    ``OverflowError`` naming the merit weight.
    """
    if P.lipschitz_g is None:
        raise ValueError("eval_merit_hat needs lipschitz_g on the problem")
    rs = params.r + params.s
    if rs == 0:
        raise ValueError("merit weight undefined for r + s = 0")
    L_g = P.lipschitz_g
    beta = params.beta
    try:
        weight = (6.0 / (abs(rs) * beta)) * (L_g * L_g + beta * beta + (eta2_y / (1.0 + params.alpha)) ** 2)
    except OverflowError:
        raise OverflowError(f"merit weight overflows float range at eta2_y = {eta2_y}") from None
    if L_beta is None:
        L_beta = eval_alf(P, what.w, beta)
    d = what.d_y_prev
    return L_beta + weight * float(d.dot(d))
