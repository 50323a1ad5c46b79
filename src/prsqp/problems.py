"""Composite problem instances: min f(x) + g(y) subject to A x = y.

A :class:`CompositeProblem` packages the two smooth blocks (values, gradients,
pointwise Hessians), the coupling map ``A``, from which the sizes, ``A^T A``
and its spectral range are derived, and optional gradient Lipschitz constants
used by the step-size theory. Three builders are provided:

* :func:`make_quadratic`      -- separable quadratics with a closed-form
  first-order point (the test oracle),
* :func:`make_classification` -- smoothed nonconvex classification loss with a
  forward-difference regularizer,
* :func:`make_huber_lasso`    -- Huber-smoothed sparse recovery.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .alf import PointEval
from .core import (
    DimensionMismatch,
    as_matrix,
    as_vector,
    normal_sample,
    sparse_normal_sample,
)

SCHEMA_VERSION = 1


@dataclass(eq=False)
class CompositeProblem:
    """Two-block composite instance; its sizes and coupling spectra are read off ``A``.

    ``eval_f``/``grad_f``/``hess_f_at`` act on ``x`` (length ``n1``),
    ``eval_g``/``grad_g``/``hess_g_at`` on ``y`` (length ``n2``), and
    ``A`` maps x-space to y-space. ``lipschitz_f``/``lipschitz_g`` are
    gradient Lipschitz bounds (``None`` when unknown); the step-floor and
    merit diagnostics require them.

    ``hess_f_at`` / ``hess_g_at`` return the Hessian as an ``(n, n)`` matrix
    or, for a diagonal Hessian, its diagonal as an ``(n,)`` array: the shape
    declares the structure. The solver keeps a diagonal model as a vector. For
    x with ``n2 < n1``, while every entry of ``hess_f_at(x) + ell`` is
    positive, it solves in the x-metric ``diag(hess_f_at(x)) + beta A^T A +
    ell I`` through an ``n2 x n2`` capacitance matrix instead of factoring the
    ``n1 x n1`` metric; for y the metric is a vector and is never factored
    (see :mod:`prsqp.solver`). A matrix always takes the dense metric, even
    when it is diagonal.

    Everything else is derived from ``A``: ``(n2, n1)`` is its shape, set on
    construction. ``AtA`` is ``A^T A``, formed on first read (a dense x-metric
    reads it), so a problem solved through the capacitance matrix never holds
    the ``n1 x n1`` array. ``min_eig_AtA`` and ``max_eig_AtA``, the spectral
    range of ``A^T A`` that only the theory constants of
    :mod:`prsqp.diagnostics` use, are computed together on the first read of
    either.

    Problems compare by identity. ``dataclasses.replace(P, ...)`` builds a new
    problem, which derives all of these afresh from its own ``A``.
    """

    name: str
    A: np.ndarray
    eval_f: Callable[[np.ndarray], float]
    grad_f: Callable[[np.ndarray], np.ndarray]
    hess_f_at: Callable[[np.ndarray], np.ndarray]
    eval_g: Callable[[np.ndarray], float]
    grad_g: Callable[[np.ndarray], np.ndarray]
    hess_g_at: Callable[[np.ndarray], np.ndarray]
    lipschitz_f: Optional[float] = None
    lipschitz_g: Optional[float] = None
    data: object = None
    n1: int = field(init=False)
    n2: int = field(init=False)

    def __post_init__(self):
        self.n2, self.n1 = as_matrix(self.A, name="A").shape

    @cached_property
    def AtA(self):
        return self.A.T @ self.A

    @cached_property
    def _spectral_range(self):
        # (lambda_min, lambda_max) of A^T A. Its nonzero eigenvalues are those
        # of A A^T, so the smaller of the two Gram matrices gives them; for
        # m < n, A^T A is singular and its smallest eigenvalue is exactly zero.
        # Only for m >= n is A^T A itself formed here.
        m, n = self.A.shape
        eigs = np.linalg.eigvalsh(self.A @ self.A.T if m < n else self.AtA)
        return (0.0 if m < n else max(float(eigs[0]), 0.0)), max(float(eigs[-1]), 0.0)

    @property
    def min_eig_AtA(self):
        return self._spectral_range[0]

    @property
    def max_eig_AtA(self):
        return self._spectral_range[1]

    def apply_A(self, x):
        return self.A @ x

    def apply_At(self, v):
        return self.A.T @ v


@dataclass
class QuadraticData:
    c_f: np.ndarray
    c_g: np.ndarray


@dataclass
class ClassificationData:
    D: np.ndarray       # (n, T), unit-norm columns
    labels: np.ndarray  # (T,), each +1 or -1
    mu: float


@dataclass
class LassoData:
    u: np.ndarray       # planted sparse signal, (n,)
    d: np.ndarray       # observations A @ u, (m,)
    tau: float
    mu: float
    density: float


# ----- scalar pieces --------------------------------------------------------


def huber(z, mu):
    """Huber value/derivative pair: quadratic ``z^2 / (2 mu)`` for ``|z| < mu``,
    linear ``|z| - mu/2`` outside, with matching derivative ``z / mu`` resp. ``sign(z)``.

    Accepts scalars or arrays (elementwise).
    """
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    z = np.asarray(z, dtype=float)
    value, deriv = _huber_value(z, mu), _huber_deriv(z, mu)
    if value.ndim == 0:
        return float(value), float(deriv)
    return value, deriv


def _huber_value(z, mu):
    a = np.abs(z)
    return np.where(a < mu, z * z / (2.0 * mu), a - mu / 2.0)


def _huber_deriv(z, mu):
    return np.where(np.abs(z) < mu, z / mu, np.sign(z))


def forward_difference(n):
    """The (n-1) x n forward-difference matrix, rows ``x[i+1] - x[i]``."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    A = np.zeros((n - 1, n))
    idx = np.arange(n - 1)
    A[idx, idx] = -1.0
    A[idx, idx + 1] = 1.0
    return A


# ----- problem builders ------------------------------------------------------


def make_quadratic(c_f, c_g, A):
    """Separable quadratic instance ``f = 0.5 ||x - c_f||^2``, ``g = 0.5 ||y - c_g||^2``.

    Both Hessians are identities and the first-order point solves a linear
    saddle system, so this family serves as the exact oracle for solver and
    diagnostics tests (see :func:`quadratic_kkt_point`).
    """
    c_f = as_vector(c_f, name="c_f")
    c_g = as_vector(c_g, name="c_g")
    n1, n2 = c_f.shape[0], c_g.shape[0]
    A = as_matrix(A, shape=(n2, n1), name="A")
    ones1, ones2 = np.ones(n1), np.ones(n2)  # both Hessians are identities, given as diagonals
    return CompositeProblem(
        name="quadratic",
        A=A,
        eval_f=lambda x: 0.5 * float((x - c_f) @ (x - c_f)),
        grad_f=lambda x: x - c_f,
        hess_f_at=lambda x: ones1,
        eval_g=lambda y: 0.5 * float((y - c_g) @ (y - c_g)),
        grad_g=lambda y: y - c_g,
        hess_g_at=lambda y: ones2,
        lipschitz_f=1.0,
        lipschitz_g=1.0,
        data=QuadraticData(c_f=c_f, c_g=c_g),
    )


def quadratic_kkt_point(P):
    """Exact first-order point (x*, y*, lambda*) of a :func:`make_quadratic` instance.

    Solves the linear system expressing ``grad f(x) = A^T lambda``,
    ``grad g(y) = -lambda`` and ``A x = y`` directly (dense LU), independently
    of the iterative solver.
    """
    if not isinstance(P.data, QuadraticData):
        raise TypeError("closed-form first-order point is only available for quadratic instances")
    n1, n2 = P.n1, P.n2
    K = np.zeros((n1 + 2 * n2, n1 + 2 * n2))
    K[:n1, :n1] = np.eye(n1)
    K[:n1, n1 + n2:] = -P.A.T
    K[n1:n1 + n2, n1:n1 + n2] = np.eye(n2)
    K[n1:n1 + n2, n1 + n2:] = np.eye(n2)
    K[n1 + n2:, :n1] = P.A
    K[n1 + n2:, n1:n1 + n2] = -np.eye(n2)
    rhs = np.concatenate([P.data.c_f, P.data.c_g, np.zeros(n2)])
    sol = np.linalg.solve(K, rhs)
    return sol[:n1], sol[n1:n1 + n2], sol[n1 + n2:]


def random_quadratic(n1, n2, rng):
    """Random quadratic instance: normal centers and a normal coupling matrix."""
    c_f = normal_sample(rng, n1)
    c_g = normal_sample(rng, n2)
    A = normal_sample(rng, n2 * n1).reshape(n2, n1)
    return make_quadratic(c_f, c_g, A)


def _classification_problem(D, labels, mu):
    D = as_matrix(D, name="D")
    n, T = D.shape
    labels = as_vector(labels, n=T, name="labels")
    if not np.all(np.abs(labels) == 1.0):
        raise ValueError("labels must be +1 or -1")
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    A = forward_difference(n)
    h_g = np.full(n - 1, mu)  # hess g = mu I, given as its diagonal

    def eval_f(x):
        z = labels * (D.T @ x)
        return float((1.0 - np.tanh(z)).sum() / T)  # the bits of np.mean

    def grad_f(x):
        z = labels * (D.T @ x)
        t = np.tanh(z)
        return -(D @ ((1.0 - t * t) * labels)) / T

    def hess_f_at(x):
        # sum_i 2 tanh(z_i)(1 - tanh(z_i)^2) a_i a_i^T / T  (labels squared drop out)
        z = labels * (D.T @ x)
        t = np.tanh(z)
        c = 2.0 * t * (1.0 - t * t) / T
        M = (D * c) @ D.T
        return 0.5 * (M + M.T)  # exact symmetry despite float matmul rounding

    return CompositeProblem(
        name="classification",
        A=A,
        eval_f=eval_f,
        grad_f=grad_f,
        hess_f_at=hess_f_at,
        eval_g=lambda y: 0.5 * mu * float(y.dot(y)),
        grad_g=lambda y: mu * y,
        hess_g_at=lambda y: h_g,
        lipschitz_f=4.0 / (3.0 * np.sqrt(3.0)),  # max |2 t (1 - t^2)| with unit-norm columns
        lipschitz_g=mu,
        data=ClassificationData(D=D, labels=labels, mu=mu),
    )


def make_classification(n, T, mu=0.001, rng=None):
    """Smoothed classification loss with forward-difference coupling.

    ``f(x) = mean_i [1 - tanh(b_i a_i^T x)]`` over ``T`` unit-norm feature
    columns ``a_i`` with labels ``b_i`` in {-1, +1}, and
    ``g(y) = (mu/2) ||y||^2`` acting on the forward differences ``y = A x``.
    Features are sampled column-normalized normal; ``rng`` is required.
    """
    if rng is None:
        raise ValueError("rng is required to sample the instance")
    if n < 2 or T < 1:
        raise ValueError(f"need n >= 2 and T >= 1, got n={n}, T={T}")
    D = normal_sample(rng, n * T).reshape(n, T)
    norms = np.linalg.norm(D, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("sampled a zero feature column; use another seed")
    D = D / norms
    labels = 2.0 * rng.integers(0, 2, size=T) - 1.0
    return _classification_problem(D, labels, mu)


def _lasso_problem(Amat, u, tau, mu, density):
    Amat = as_matrix(Amat, name="Amat")
    m, n = Amat.shape
    u = as_vector(u, n=n, name="u")
    if not (tau > 0 and mu > 0):
        raise ValueError(f"tau and mu must be positive, got tau={tau}, mu={mu}")
    d = Amat @ u
    ones2 = np.ones(m)  # hess g = I, given as its diagonal

    def eval_f(x):
        return tau * float(_huber_value(np.asarray(x, dtype=float), mu).sum())

    def grad_f(x):
        return tau * _huber_deriv(np.asarray(x, dtype=float), mu)

    def hess_f_at(x):
        # the diagonal of hess f: tau / mu inside the Huber knee, 0 outside
        return np.where(np.abs(x) < mu, tau / mu, 0.0)

    return CompositeProblem(
        name="huber_lasso",
        A=Amat,
        eval_f=eval_f,
        grad_f=grad_f,
        hess_f_at=hess_f_at,
        eval_g=lambda y: 0.5 * float((y - d) @ (y - d)),
        grad_g=lambda y: y - d,
        hess_g_at=lambda y: ones2,
        lipschitz_f=tau / mu,
        lipschitz_g=1.0,
        data=LassoData(u=u, d=d, tau=tau, mu=mu, density=density),
    )


def make_huber_lasso(m, n, density=0.5, tau=1e-3, mu=0.1, rng=None):
    """Huber-smoothed sparse recovery: ``f(x) = tau * sum_i huber(x_i)``,
    ``g(y) = 0.5 ||y - d||^2`` with ``d = A u`` for a planted sparse ``u``.

    ``A`` is m x n normal with ``m < n``; ``u`` has ``round(density * n)``
    normal entries. ``rng`` is required.
    """
    if rng is None:
        raise ValueError("rng is required to sample the instance")
    if not m < n:
        raise ValueError(f"need m < n (underdetermined recovery), got m={m}, n={n}")
    Amat = normal_sample(rng, m * n).reshape(m, n)
    u = sparse_normal_sample(rng, n, density)
    return _lasso_problem(Amat, u, tau, mu, density)


# ----- shared evaluations -----------------------------------------------------


def composite_objective(P, x):
    """Original objective ``f(x) + g(A x)`` (the OFV metric in traces/summaries).

    ``x`` may be given as its :class:`~prsqp.alf.PointEval` on ``P``, whose
    ``f(x)`` and ``A x`` are then used.
    """
    at = x if isinstance(x, PointEval) else PointEval(P, as_vector(x, n=P.n1, name="x"))
    return at.f + float(P.eval_g(at.Ax))


def hessian_pair(P, x, y):
    """Current second-order model ``(hess f(x), hess g(y))`` with shape checks.

    Each part is what the problem's callable returns: an ``(n, n)`` matrix, or
    the ``(n,)`` diagonal of a diagonal Hessian.
    """
    x = as_vector(x, n=P.n1, name="x")
    y = as_vector(y, n=P.n2, name="y")
    return _model(P.hess_f_at(x), P.n1, "hess_f(x)"), _model(P.hess_g_at(y), P.n2, "hess_g(y)")


def _model(H, n, name):
    H = np.asarray(H, dtype=float)
    return as_vector(H, n=n, name=name) if H.ndim == 1 else as_matrix(H, shape=(n, n), name=name)


# ----- JSON (de)serialization --------------------------------------------------


def matrix_to_json(M):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D array, got shape {M.shape}")
    return {"rows": int(M.shape[0]), "cols": int(M.shape[1]), "data": [float(v) for v in M.ravel()]}


def _json_size(obj, key):
    # a JSON integer; 1.5 is no size of 1, and true none of 1
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _json_real(value, name):
    # a finite JSON number, as a float; true, false and strings are not numbers
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def _json_weight(obj, key):
    return _json_real(obj[key], key)


def _json_vector(obj, key):
    # a JSON list of finite numbers, as a float array
    if not isinstance(obj[key], list):
        raise ValueError(f"{key} must be a list of numbers, got {type(obj[key]).__name__}")
    return np.array([_json_real(value, f"each entry of {key}") for value in obj[key]], dtype=float)


def matrix_from_json(obj):
    keys = set(obj)
    if keys != {"rows", "cols", "data"}:
        raise ValueError(f"matrix object must have keys rows/cols/data, got {sorted(keys)}")
    rows, cols = _json_size(obj, "rows"), _json_size(obj, "cols")
    data = _json_vector(obj, "data")
    if data.shape != (rows * cols,):
        raise ValueError(f"matrix data length {data.shape[0]} != rows*cols = {rows * cols}")
    return data.reshape(rows, cols)


def problem_to_json(P):
    """Serialize a built instance (arrays included) to a plain-JSON dict."""
    if isinstance(P.data, QuadraticData):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "quadratic",
            "c_f": [float(v) for v in P.data.c_f],
            "c_g": [float(v) for v in P.data.c_g],
            "A": matrix_to_json(P.A),
        }
    if isinstance(P.data, ClassificationData):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "classification",
            "mu": float(P.data.mu),
            "D": matrix_to_json(P.data.D),
            "labels": [float(v) for v in P.data.labels],
        }
    if isinstance(P.data, LassoData):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "huber_lasso",
            "tau": float(P.data.tau),
            "mu": float(P.data.mu),
            "density": float(P.data.density),
            "A": matrix_to_json(P.A),
            "u": [float(v) for v in P.data.u],
        }
    raise TypeError(f"cannot serialize problem {P.name!r}")


def problem_from_json(obj):
    """Rebuild a :class:`CompositeProblem` from :func:`problem_to_json` output.

    Raises ``ValueError`` for a malformed object, among them a weight (``mu``,
    ``tau``, ``density``) or an array entry that is no finite number (a
    boolean or a string included) and a matrix size that is no integer.
    """
    if not isinstance(obj, dict):
        raise ValueError("problem object must be a JSON object")
    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    kind = obj.get("kind")
    allowed = {
        "quadratic": {"schema_version", "kind", "c_f", "c_g", "A"},
        "classification": {"schema_version", "kind", "mu", "D", "labels"},
        "huber_lasso": {"schema_version", "kind", "tau", "mu", "density", "A", "u"},
    }
    if kind not in allowed:
        raise ValueError(f"unknown problem kind {kind!r}")
    extra = set(obj) - allowed[kind]
    if extra:
        raise ValueError(f"unknown keys in problem object: {sorted(extra)}")
    missing = allowed[kind] - set(obj)
    if missing:
        raise ValueError(f"missing keys in problem object: {sorted(missing)}")
    if kind == "quadratic":
        return make_quadratic(_json_vector(obj, "c_f"), _json_vector(obj, "c_g"), matrix_from_json(obj["A"]))
    if kind == "classification":
        return _classification_problem(matrix_from_json(obj["D"]), _json_vector(obj, "labels"), _json_weight(obj, "mu"))
    tau, mu, density = (_json_weight(obj, key) for key in ("tau", "mu", "density"))
    return _lasso_problem(matrix_from_json(obj["A"]), _json_vector(obj, "u"), tau, mu, density)
