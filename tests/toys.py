"""Tiny hand-checkable problem instances and finite-difference helpers for the tests."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import prsqp
from prsqp import CompositeProblem


def fresh_python(code, *args):
    """Run ``code`` in a new interpreter that imports this checkout's prsqp; return its result.

    ``code`` is source text, or the :class:`~pathlib.Path` of a script to run
    as the main module. For checks on what a process loads, which the test
    process itself (having imported scipy.linalg for reference values) cannot
    show.
    """
    src = str(Path(prsqp.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    program = [str(code)] if isinstance(code, Path) else ["-c", code]
    return subprocess.run(
        [sys.executable, *program, *map(str, args)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


def scalar_problem(
    eval_f,
    grad_f,
    hess_f,
    eval_g,
    grad_g,
    hess_g,
    a=1.0,
    lipschitz_f=None,
    lipschitz_g=None,
    name="scalar",
):
    """1-D composite problem with coupling A = [[a]]; callables act on scalars.

    ``hess_f_at`` returns a 1 x 1 matrix and ``hess_g_at`` the (1,) diagonal,
    so the solver builds a factored x-metric and a diagonal y-metric.
    """
    return CompositeProblem(
        name=name,
        A=np.array([[float(a)]]),
        eval_f=lambda x: float(eval_f(float(x[0]))),
        grad_f=lambda x: np.array([grad_f(float(x[0]))], dtype=float),
        hess_f_at=lambda x: np.array([[hess_f(float(x[0]))]], dtype=float),
        eval_g=lambda y: float(eval_g(float(y[0]))),
        grad_g=lambda y: np.array([grad_g(float(y[0]))], dtype=float),
        hess_g_at=lambda y: np.array([hess_g(float(y[0]))], dtype=float),
        lipschitz_f=lipschitz_f,
        lipschitz_g=lipschitz_g,
    )


def zero_problem(a=1.0):
    """f = g = 0 with coupling A = [[a]]; isolates the penalty/multiplier terms."""
    zero = lambda _: 0.0
    return scalar_problem(
        zero, zero, zero, zero, zero, zero, a=a, lipschitz_f=0.0, lipschitz_g=0.0, name="zero"
    )


def decoupled_problem(eval_f, grad_f, hess_f, lipschitz_f=None):
    """1-D problem with A = 0 and g = 0: L_beta reduces to f(x) plus y/lam terms."""
    zero = lambda _: 0.0
    return scalar_problem(
        eval_f,
        grad_f,
        hess_f,
        zero,
        zero,
        zero,
        a=0.0,
        lipschitz_f=lipschitz_f,
        lipschitz_g=0.0,
        name="decoupled",
    )


def central_diff(fun, x, h=1e-6):
    """Central finite-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return out


def rel_err(approx, exact):
    """Sup-norm error relative to max(1, sup-norm of the exact value)."""
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    scale = max(1.0, float(np.max(np.abs(exact))) if exact.size else 0.0)
    return float(np.max(np.abs(approx - exact))) / scale
