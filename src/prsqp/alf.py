"""Augmented Lagrangian of the split problem and the merit function built on it.

For the split ``min f(x) + g(y) s.t. A x = y`` with multiplier ``lam`` and
penalty ``beta > 0``,

    ``L_beta(x, y, lam) = f(x) + g(y) - lam^T (A x - y) + (beta/2) ||A x - y||^2``.

All partial gradients here are the calculus gradients of this definition, so a
stationary point satisfies ``grad f(x) = A^T lam``, ``grad g(y) = -lam`` and
``A x = y``. The merit function :func:`eval_merit_hat` augments ``L_beta`` with
a weighted square of the previous y-direction; the solver drives it monotonically
downward when the dual step sizes admit positive decrease margins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import UnknownLipschitz, as_vector


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


@dataclass(frozen=True)
class AlfGradient:
    """Partial gradients of ``L_beta`` in ``x``, ``y`` and ``lam``."""

    gx: np.ndarray
    gy: np.ndarray
    glam: np.ndarray


def eval_alf(P, w, beta):
    """Value of the augmented Lagrangian at ``w``."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    residual = P.apply_A(w.x) - w.y
    return (
        float(P.eval_f(w.x))
        + float(P.eval_g(w.y))
        - float(w.lam @ residual)
        + 0.5 * beta * float(residual @ residual)
    )


def grad_alf(P, w, beta):
    """All three partial gradients of ``L_beta`` at ``w``.

    With ``residual = A x - y`` and the shifted multiplier
    ``lam_shift = lam - beta * residual``:

        ``gx =  grad f(x) - A^T lam_shift``
        ``gy =  grad g(y) + lam_shift``
        ``glam = -residual``
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    residual = P.apply_A(w.x) - w.y
    lam_shift = w.lam - beta * residual
    return AlfGradient(
        gx=P.grad_f(w.x) - P.apply_At(lam_shift),
        gy=P.grad_g(w.y) + lam_shift,
        glam=-residual,
    )


def eval_merit_hat(P, what, params, eta2_y, L_beta=None):
    """Merit value at the augmented iterate ``what = (w, d_y_prev)``.

    ``L_beta(w)`` plus ``6 / (|r + s| beta) * (L_g^2 + beta^2 + (eta2_y / (1 + alpha))^2)``
    times ``||d_y_prev||^2``, where ``L_g`` is the gradient Lipschitz constant of
    ``g`` and ``eta2_y`` the uniform upper curvature bound of the y-subproblem
    metric. Requires ``lipschitz_g`` on the problem and ``r + s != 0``.
    ``L_beta`` is the value of ``L_beta(w)`` when the caller already has it;
    it is evaluated otherwise.
    """
    if P.lipschitz_g is None:
        raise UnknownLipschitz("eval_merit_hat needs lipschitz_g on the problem")
    rs = params.r + params.s
    if rs == 0:
        raise ValueError("merit weight undefined for r + s = 0")
    L_g = P.lipschitz_g
    beta = params.beta
    weight = (6.0 / (abs(rs) * beta)) * (
        L_g * L_g + beta * beta + (eta2_y / (1.0 + params.alpha)) ** 2
    )
    if L_beta is None:
        L_beta = eval_alf(P, what.w, beta)
    d = what.d_y_prev
    return L_beta + weight * float(d @ d)
