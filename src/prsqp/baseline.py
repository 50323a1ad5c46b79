"""Steepest-descent baseline on the unsplit objective ``F(x) = f(x) + g(A x)``.

The comparison partner for the splitting solver: same problem data, no
splitting, no duals -- just ``x_{k+1} = x_k - t grad F(x_k)`` with
weak-Armijo backtracking.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .core import as_vector
from .problems import composite_objective
from .solver import SolveStatus, _quiet_numerics


@dataclass(frozen=True)
class GdParams:
    """Armijo step rule and loop controls for :func:`gradient_descent`.

    Each step backtracks from 1 with ratio ``nu`` until
    ``F(x - t g) <= F(x) - rho t ||g||^2``. ``tol`` stops on the sup-norm of
    the gradient. Ranges are enforced at construction; a set is frozen.
    """

    rho: float = 1e-4
    nu: float = 0.5
    max_iter: int = 1000
    tol: float = 1e-6
    max_backtracks: int = 60

    def __post_init__(self):
        if not (0 < self.rho < 1 and 0 < self.nu < 1):
            raise ValueError(f"armijo needs rho, nu in (0, 1), got rho={self.rho}, nu={self.nu}")
        if self.max_iter < 1 or self.max_backtracks < 1 or self.tol < 0:
            raise ValueError("max_iter, max_backtracks must be >= 1 and tol >= 0")


@dataclass
class GdRecord:
    k: int
    objective: float
    grad_inf: float
    t: float
    elapsed: float


@dataclass
class GdResult:
    final_x: np.ndarray
    status: SolveStatus
    trace: List[GdRecord] = field(default_factory=list)

    @property
    def iterations(self):
        return len(self.trace)


def composite_gradient(P, x):
    """Gradient of the unsplit objective: ``grad f(x) + A^T grad g(A x)``."""
    x = as_vector(x, n=P.n1, name="x")
    return P.grad_f(x) + P.apply_At(P.grad_g(P.apply_A(x)))


@_quiet_numerics
def gradient_descent(P, x0, gd):
    """Minimize ``F = f + g o A`` by steepest descent from ``x0``.

    Stops when ``||grad F||_inf <= gd.tol`` (Converged), after ``max_iter``
    steps (IterLimit), or when Armijo backtracking exhausts its budget
    (LineSearchFailed, captured in the status). Each trace record carries the
    objective and gradient norm after the step it logs.
    """
    x = as_vector(x0, n=P.n1, name="x0")
    # F(x) and grad F(x) of the current iterate, carried from the step that made it
    g = composite_gradient(P, x)
    F = composite_objective(P, x)
    trace: List[GdRecord] = []
    status = SolveStatus.ITER_LIMIT
    for k in range(gd.max_iter):
        t_start = time.perf_counter()
        if float(np.max(np.abs(g))) <= gd.tol:
            status = SolveStatus.CONVERGED
            break
        # no float slack here: an accept-on-noise bias would put a floor on
        # the reachable gradient norm and break the tol contract
        gg = float(g @ g)
        t = 1.0
        for _ in range(gd.max_backtracks + 1):
            cand = x - t * g
            F_cand = composite_objective(P, cand)
            if F_cand <= F - gd.rho * t * gg:
                x, F = cand, F_cand
                break
            t *= gd.nu
        else:
            status = SolveStatus.LINE_SEARCH_FAILED
            break
        g = composite_gradient(P, x)
        trace.append(
            GdRecord(
                k=k,
                objective=F,
                grad_inf=float(np.max(np.abs(g))),
                t=t,
                elapsed=time.perf_counter() - t_start,
            )
        )
    return GdResult(final_x=x, status=status, trace=trace)
