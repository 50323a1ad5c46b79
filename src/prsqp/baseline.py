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

from .alf import PointEval
from .core import as_vector
from .problems import composite_gradient, composite_objective
from .solver import _MAX_BACKTRACKS, SolveStatus, _field_violations, _quiet_numerics, _raise_violations


_RHO, _NU = 1e-4, 0.5  # with _MAX_BACKTRACKS, the fixed Armijo rule that GdParams states


@dataclass(frozen=True)
class GdParams:
    """The iteration budget of :func:`gradient_descent`; its step and stop rules are fixed.

    Each step backtracks from 1 by halving, at most 60 times, until
    ``F(x - t g) <= F(x) - 1e-4 t ||g||^2``, and the run stops Converged only
    at an exactly zero gradient. ``max_iter`` is checked at construction as
    :class:`~prsqp.solver.SolverParams` checks its own; a set is frozen.
    """

    max_iter: int = 1000

    def __post_init__(self):
        _raise_violations(_field_violations(self, GdParams))


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


@_quiet_numerics
def gradient_descent(P, x0, gd):
    """Minimize ``F = f + g o A`` by steepest descent from ``x0``.

    Stops at an exactly zero ``grad F`` (Converged), after ``gd.max_iter``
    steps (IterLimit), or when Armijo backtracking exhausts its budget
    (LineSearchFailed, captured in the status). Each trace record carries the
    objective and gradient norm after the step it logs.
    """
    at = PointEval(P, as_vector(x0, n=P.n1, name="x0"))
    # F, grad F and ||grad F||_inf of the current iterate, evaluated through its one record
    F, g = composite_objective(P, at), composite_gradient(P, at)
    g_inf = float(np.max(np.abs(g)))
    trace: List[GdRecord] = []
    status = SolveStatus.ITER_LIMIT
    for k in range(gd.max_iter):
        t_start = time.perf_counter()
        if g_inf == 0.0:
            status = SolveStatus.CONVERGED
            break
        # no float slack here: an accept-on-noise bias would put a floor on
        # the reachable gradient norm
        gg = float(g @ g)
        t = 1.0
        for _ in range(_MAX_BACKTRACKS + 1):
            cand = PointEval(P, at.x - t * g)
            F_cand = composite_objective(P, cand)
            if F_cand <= F - _RHO * t * gg:
                at, F = cand, F_cand
                break
            t *= _NU
        else:
            status = SolveStatus.LINE_SEARCH_FAILED
            break
        g = composite_gradient(P, at)
        g_inf = float(np.max(np.abs(g)))
        trace.append(GdRecord(k=k, objective=F, grad_inf=g_inf, t=t, elapsed=time.perf_counter() - t_start))
    return GdResult(final_x=at.x, status=status, trace=trace)
