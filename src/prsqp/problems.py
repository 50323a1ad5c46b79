"""Composite problem instances: min f(x) + g(y) subject to A x = y.

A :class:`CompositeProblem` packages the two smooth blocks (values, gradients,
pointwise Hessians), the coupling map ``A`` with spectral data of ``A^T A``
computed on first read, and optional gradient Lipschitz constants used by the
step-size theory. Three builders are provided:

* :func:`make_quadratic`      -- separable quadratics with a closed-form
  first-order point (the test oracle),
* :func:`make_classification` -- smoothed nonconvex classification loss with a
  forward-difference regularizer,
* :func:`make_huber_lasso`    -- Huber-smoothed sparse recovery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass
class CompositeProblem:
    """Two-block composite instance with lazily computed coupling spectra.

    ``eval_f``/``grad_f``/``hess_f_at`` act on ``x`` (length ``n1``),
    ``eval_g``/``grad_g``/``hess_g_at`` on ``y`` (length ``n2``), and
    ``A`` maps x-space to y-space. ``lipschitz_f``/``lipschitz_g`` are
    gradient Lipschitz bounds (``None`` when unknown); the step-floor and
    merit diagnostics require them.

    ``hess_f_diag``, when given, declares that ``hess_f_at(x)`` is diagonal:
    it returns that diagonal as an ``(n1,)`` array. With ``n2 < n1`` the solver
    then keeps the x-model as this vector and, while every entry of
    ``hess_f_diag(x) + ell`` is positive, solves in the x-metric
    ``diag(hess_f_diag(x)) + beta A^T A + ell I`` through an ``n2 x n2``
    capacitance matrix instead of factoring the ``n1 x n1`` metric (see
    :mod:`prsqp.solver`). ``None`` (the default) keeps the dense metric.

    ``AtA`` is ``A^T A``: when it is not given, it is formed from ``A`` on
    first read (a dense x-metric reads it), so a problem solved through the
    capacitance matrix never holds the ``n1 x n1`` array. Likewise
    ``norm_AtA``, ``min_eig_AtA`` and ``max_eig_AtA``, the spectral range of
    ``A^T A`` that only the theory constants of :mod:`prsqp.diagnostics` use,
    are computed together on the first read of any of them unless given.
    """

    name: str
    n1: int
    n2: int
    A: np.ndarray
    eval_f: Callable[[np.ndarray], float]
    grad_f: Callable[[np.ndarray], np.ndarray]
    hess_f_at: Callable[[np.ndarray], np.ndarray]
    eval_g: Callable[[np.ndarray], float]
    grad_g: Callable[[np.ndarray], np.ndarray]
    hess_g_at: Callable[[np.ndarray], np.ndarray]
    lipschitz_f: Optional[float] = None
    lipschitz_g: Optional[float] = None
    AtA: np.ndarray = field(default=None, repr=False)
    norm_AtA: Optional[float] = field(default=None, repr=False)
    min_eig_AtA: Optional[float] = field(default=None, repr=False)
    max_eig_AtA: Optional[float] = field(default=None, repr=False)
    data: object = None
    hess_f_diag: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def apply_A(self, x):
        return self.A @ x

    def apply_At(self, v):
        return self.A.T @ v


def _form_AtA(P):
    P._AtA = P.A.T @ P.A


def _form_spectra(P):
    # The spectral range of A^T A, for each of the three not already set. A^T A
    # is PSD, so its norm is its largest eigenvalue. Its nonzero eigenvalues
    # are those of A A^T, so the smaller of the two Gram matrices gives them;
    # for m < n, A^T A is singular and its smallest eigenvalue is exactly zero.
    # Only for m >= n is A^T A itself formed here.
    m, n = P.A.shape
    eigs = np.linalg.eigvalsh(P.A @ P.A.T if m < n else P.AtA)
    top = max(float(eigs[-1]), 0.0)
    low = 0.0 if m < n else max(float(eigs[0]), 0.0)
    for key, value in (("_norm_AtA", top), ("_min_eig_AtA", low), ("_max_eig_AtA", top)):
        if getattr(P, key) is None:
            setattr(P, key, value)


def _lazy(name, form):
    # a property over P._<name>: a value set (by the constructor too) is kept,
    # and None is replaced by form(P) on first read
    key = "_" + name

    def get(P):
        if getattr(P, key) is None:
            form(P)
        return getattr(P, key)

    return property(get, lambda P, value: setattr(P, key, value))


# installed after the dataclass is made, so that its __init__ assigns these
# arguments through the setters
CompositeProblem.AtA = _lazy("AtA", _form_AtA)
for _name in ("norm_AtA", "min_eig_AtA", "max_eig_AtA"):
    setattr(CompositeProblem, _name, _lazy(_name, _form_spectra))


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
    if mu <= 0:
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
    ones1 = np.ones(n1)
    I1 = np.eye(n1)
    I2 = np.eye(n2)
    return CompositeProblem(
        name="quadratic",
        n1=n1,
        n2=n2,
        A=A,
        eval_f=lambda x: 0.5 * float((x - c_f) @ (x - c_f)),
        grad_f=lambda x: x - c_f,
        hess_f_at=lambda x: I1,
        eval_g=lambda y: 0.5 * float((y - c_g) @ (y - c_g)),
        grad_g=lambda y: y - c_g,
        hess_g_at=lambda y: I2,
        lipschitz_f=1.0,
        lipschitz_g=1.0,
        data=QuadraticData(c_f=c_f, c_g=c_g),
        hess_f_diag=lambda x: ones1,
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
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    A = forward_difference(n)
    I2 = mu * np.eye(n - 1)

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
        n1=n,
        n2=n - 1,
        A=A,
        eval_f=eval_f,
        grad_f=grad_f,
        hess_f_at=hess_f_at,
        eval_g=lambda y: 0.5 * mu * float(y.dot(y)),
        grad_g=lambda y: mu * y,
        hess_g_at=lambda y: I2,
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
    if tau <= 0 or mu <= 0:
        raise ValueError(f"tau and mu must be positive, got tau={tau}, mu={mu}")
    d = Amat @ u
    I2 = np.eye(m)

    def eval_f(x):
        return tau * float(_huber_value(np.asarray(x, dtype=float), mu).sum())

    def grad_f(x):
        return tau * _huber_deriv(np.asarray(x, dtype=float), mu)

    def hess_f_diag(x):
        return np.where(np.abs(x) < mu, tau / mu, 0.0)

    return CompositeProblem(
        name="huber_lasso",
        n1=n,
        n2=m,
        A=Amat,
        eval_f=eval_f,
        grad_f=grad_f,
        hess_f_at=lambda x: np.diag(hess_f_diag(x)),
        eval_g=lambda y: 0.5 * float((y - d) @ (y - d)),
        grad_g=lambda y: y - d,
        hess_g_at=lambda y: I2,
        lipschitz_f=tau / mu,
        lipschitz_g=1.0,
        data=LassoData(u=u, d=d, tau=tau, mu=mu, density=density),
        hess_f_diag=hess_f_diag,
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


def hessian_pair(P, x, y, diagonal_x=False):
    """Current second-order model ``(hess f(x), hess g(y))`` with shape checks.

    With ``diagonal_x`` the x part is ``P.hess_f_diag(x)``, the diagonal of
    ``hess f(x)`` as an ``(n1,)`` array.
    """
    x = as_vector(x, n=P.n1, name="x")
    y = as_vector(y, n=P.n2, name="y")
    if diagonal_x:
        H_x = as_vector(P.hess_f_diag(x), n=P.n1, name="hess_f_diag(x)")
    else:
        H_x = as_matrix(P.hess_f_at(x), shape=(P.n1, P.n1), name="hess_f(x)")
    H_y = as_matrix(P.hess_g_at(y), shape=(P.n2, P.n2), name="hess_g(y)")
    return H_x, H_y


# ----- JSON (de)serialization --------------------------------------------------


def matrix_to_json(M):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D array, got shape {M.shape}")
    return {"rows": int(M.shape[0]), "cols": int(M.shape[1]), "data": [float(v) for v in M.ravel()]}


def matrix_from_json(obj):
    keys = set(obj)
    if keys != {"rows", "cols", "data"}:
        raise ValueError(f"matrix object must have keys rows/cols/data, got {sorted(keys)}")
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = np.asarray(obj["data"], dtype=float)
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
    """Rebuild a :class:`CompositeProblem` from :func:`problem_to_json` output."""
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
        return make_quadratic(obj["c_f"], obj["c_g"], matrix_from_json(obj["A"]))
    if kind == "classification":
        return _classification_problem(matrix_from_json(obj["D"]), obj["labels"], float(obj["mu"]))
    return _lasso_problem(
        matrix_from_json(obj["A"]), obj["u"], float(obj["tau"]), float(obj["mu"]), float(obj["density"])
    )
