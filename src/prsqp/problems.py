"""Composite problem instances: min f(x) + g(y) subject to A x = y.

A :class:`CompositeProblem` packages the two smooth blocks (values, gradients,
pointwise Hessians), the coupling map ``A``, from which the sizes, both Gram
matrices and their spectral range are derived, and optional gradient Lipschitz
constants used by the step-size theory. Three builders are provided:

* :func:`make_quadratic`      -- separable quadratics with a closed-form
  first-order point (the test oracle),
* :func:`make_classification` -- smoothed nonconvex classification loss with a
  forward-difference regularizer,
* :func:`make_huber_lasso`    -- Huber-smoothed sparse recovery.

Each family's JSON container (data record, builder, keys in file order) is
declared once, in ``_CONTAINERS``. The JSON readers and :func:`make_quadratic`
reject non-finite entries; the classification and Huber-LASSO builders take
the arrays they are handed, finite as their samplers draw them. A classification
container must hold unit-norm feature columns, which its ``lipschitz_f`` assumes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .alf import PointEval
from .core import as_matrix, as_vector, normal_sample, sparse_normal_sample

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

    Everything else is derived from ``A``, which must have a row and a column
    (else ``ValueError``): ``(n2, n1)`` is its shape, set on construction.
    ``AtA`` (``A^T A``, read by a dense x-metric) and ``AAt`` (``A A^T``, read
    by a capacitance matrix) are formed on first read, so a problem solved
    through capacitance matrices never holds the ``n1 x n1`` array.
    ``min_eig_AtA`` and ``max_eig_AtA``, the spectral range of ``A^T A`` that
    only the theory constants of :mod:`prsqp.diagnostics` use, are computed
    together, from the smaller of the two, on the first read.

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
        self.n2, self.n1 = shape = as_matrix(self.A, name="A").shape
        if not all(shape):
            raise ValueError(f"A must have at least one row and one column, got shape {shape}")

    @cached_property
    def AtA(self):
        return self.A.T @ self.A

    @cached_property
    def AAt(self):
        return self.A @ self.A.T

    @cached_property
    def _spectral_range(self):
        # (lambda_min, lambda_max) of A^T A. Its nonzero eigenvalues are those
        # of A A^T, so the smaller of the two Gram matrices gives them; for
        # m < n, A^T A is singular and its smallest eigenvalue is exactly zero.
        m, n = self.A.shape
        eigs = np.linalg.eigvalsh(self.AAt if m < n else self.AtA)
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


def _huber_value(z, mu):
    # elementwise Huber value: z^2 / (2 mu) for |z| < mu, |z| - mu/2 outside
    a = np.abs(z)
    return np.where(a < mu, z * z / (2.0 * mu), a - mu / 2.0)


def _huber_deriv(z, mu):
    # its derivative: z / mu for |z| < mu, sign(z) outside
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
    for name, array in (("c_f", c_f), ("c_g", c_g), ("A", A)):
        if not np.isfinite(array).all():
            raise ValueError(f"{name} must hold finite numbers only")
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


def _classification_sizes(n, T):
    if n < 2 or T < 1:
        raise ValueError(f"need n >= 2 and T >= 1, got n={n}, T={T}")


def _classification_problem(D, labels, mu):
    D = as_matrix(D, name="D")
    n, T = D.shape
    _classification_sizes(n, T)
    labels = as_vector(labels, n=T, name="labels")
    if not np.all(np.abs(labels) == 1.0):
        raise ValueError("labels must be +1 or -1")
    if not 0 < mu < math.inf:
        raise ValueError(f"mu must be positive and finite, got {mu}")
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


def make_classification(n, T, mu=0.001, *, rng):
    """Smoothed classification loss with forward-difference coupling.

    ``f(x) = mean_i [1 - tanh(b_i a_i^T x)]`` over ``T`` unit-norm feature
    columns ``a_i`` with labels ``b_i`` in {-1, +1}, and
    ``g(y) = (mu/2) ||y||^2`` acting on the forward differences ``y = A x``.
    Features are sampled column-normalized normal from the required ``rng``.
    """
    _classification_sizes(n, T)
    D = normal_sample(rng, n * T).reshape(n, T)
    norms = np.linalg.norm(D, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("sampled a zero feature column; use another seed")
    D = D / norms
    labels = 2.0 * rng.integers(0, 2, size=T) - 1.0
    return _classification_problem(D, labels, mu)


def _lasso_problem(A, u, tau, mu, density):
    A = as_matrix(A, name="A")
    m, n = A.shape
    if not m < n:
        raise ValueError(f"need m < n (underdetermined recovery), got m={m}, n={n}")
    u = as_vector(u, n=n, name="u")
    if not (0 < tau < math.inf and 0 < mu < math.inf):
        raise ValueError(f"tau and mu must be positive and finite, got tau={tau}, mu={mu}")
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must lie in (0, 1], got {density}")
    d = A @ u
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
        A=A,
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


def make_huber_lasso(m, n, density=0.5, tau=1e-3, mu=0.1, *, rng):
    """Huber-smoothed sparse recovery: ``f(x) = tau * sum_i huber(x_i)``,
    ``g(y) = 0.5 ||y - d||^2`` with ``d = A u`` for a planted sparse ``u``.

    ``A`` is m x n normal with ``m < n``; ``u`` has ``round(density * n)``
    normal entries, both sampled from the required ``rng``.
    """
    A = normal_sample(rng, m * n).reshape(m, n)
    u = sparse_normal_sample(rng, n, density)
    return _lasso_problem(A, u, tau, mu, density)


# ----- shared evaluations -----------------------------------------------------


def _point(P, x):
    return x if isinstance(x, PointEval) else PointEval(P, as_vector(x, n=P.n1, name="x"))


def composite_objective(P, x):
    """Original objective ``f(x) + g(A x)`` (the OFV metric in traces/summaries).

    ``x`` may be given as its :class:`~prsqp.alf.PointEval` on ``P``, whose
    ``f(x)`` and ``A x`` are then used.
    """
    at = _point(P, x)
    return at.f + float(P.eval_g(at.Ax))


def composite_gradient(P, x):
    """Gradient of the original objective: ``grad f(x) + A^T grad g(A x)``.

    ``x`` may be given as its :class:`~prsqp.alf.PointEval` on ``P``, whose
    ``grad f(x)`` and ``A x`` are then used.
    """
    at = _point(P, x)
    return at.grad_f + P.apply_At(P.grad_g(at.Ax))


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


def _matrix_to_json(M):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {M.shape}")
    return {"rows": int(M.shape[0]), "cols": int(M.shape[1]), "data": [float(v) for v in M.ravel()]}


def _json_size(obj, key):
    # a JSON integer; 1.5 is no size of 1, and true none of 1
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _past_float_range(value):
    # a real number that no float can hold, such as an int of 400 digits
    if isinstance(value, numbers.Real):
        try:
            float(value)
        except OverflowError:
            return True
    return False


def _json_real(value, name):
    # a finite JSON number, as a float; true, false, strings and integers no float holds are not
    real = not isinstance(value, bool) and isinstance(value, numbers.Real) and not _past_float_range(value)
    if not (real and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def _json_weight(obj, key):
    return _json_real(obj[key], key)


def _json_vector(obj, key):
    # a JSON list of finite numbers, as a float array
    if not isinstance(obj[key], list):
        raise ValueError(f"{key} must be a list of numbers, got {type(obj[key]).__name__}")
    return np.array([_json_real(value, f"each entry of {key}") for value in obj[key]], dtype=float)


def _matrix_from_json(obj):
    keys = set(obj)
    if keys != {"rows", "cols", "data"}:
        raise ValueError(f"matrix object must have keys rows/cols/data, got {sorted(keys)}")
    rows, cols = _json_size(obj, "rows"), _json_size(obj, "cols")
    data = _json_vector(obj, "data")
    if data.shape != (rows * cols,):
        raise ValueError(f"matrix data length {data.shape[0]} != rows*cols = {rows * cols}")
    return data.reshape(rows, cols)


def _json_unit_columns(obj, key):
    # a classification's lipschitz_f = 4 / (3 sqrt 3) holds for unit-norm feature columns only
    D = _matrix_from_json(obj[key])
    norms = np.linalg.norm(D, axis=0)
    if np.any(np.abs(norms - 1.0) > 1e-12):
        raise ValueError(f"{key} must have unit-norm columns, got norms {norms.min()!r} to {norms.max()!r}")
    return D


# how a container key is (read, written)
_WEIGHT = (_json_weight, float)
_VECTOR = (_json_vector, lambda v: [float(x) for x in v])
_MATRIX = (lambda obj, key: _matrix_from_json(obj[key]), _matrix_to_json)
_UNIT_COLS = (_json_unit_columns, _matrix_to_json)

# Each family's container: kind -> (data record, builder, keys in file order).
# The builder takes the keys as its arguments. ``A`` is written off the
# problem, every other key off its data record.
_CONTAINERS = {
    "quadratic": (QuadraticData, make_quadratic, dict(c_f=_VECTOR, c_g=_VECTOR, A=_MATRIX)),
    "classification": (ClassificationData, _classification_problem, dict(mu=_WEIGHT, D=_UNIT_COLS, labels=_VECTOR)),
    "huber_lasso": (LassoData, _lasso_problem, dict(tau=_WEIGHT, mu=_WEIGHT, density=_WEIGHT, A=_MATRIX, u=_VECTOR)),
}


def problem_to_json(P):
    """Serialize a built instance (arrays included) to a plain-JSON dict.

    Raises ``ValueError`` for a problem its container would not rebuild, as
    a classification or Huber-LASSO is after ``dataclasses.replace(P, A=...)``.
    """
    data = P.data
    if isinstance(data, ClassificationData) and not np.array_equal(P.A, forward_difference(data.D.shape[0])):
        raise ValueError(f"cannot serialize problem {P.name!r}: A is not the forward-difference matrix")
    if isinstance(data, LassoData) and not np.array_equal(P.A @ data.u, data.d):
        raise ValueError(f"cannot serialize problem {P.name!r}: d is not A @ u")
    for kind, (record, _, keys) in _CONTAINERS.items():
        if isinstance(data, record):
            stored = {key: write(P.A if key == "A" else getattr(data, key)) for key, (_, write) in keys.items()}
            return {"schema_version": SCHEMA_VERSION, "kind": kind, **stored}
    raise TypeError(f"cannot serialize problem {P.name!r}")


def problem_from_json(obj):
    """Rebuild a :class:`CompositeProblem` from :func:`problem_to_json` output.

    Raises ``ValueError`` for a malformed object, among them a weight (``mu``,
    ``tau``, ``density``) or an array entry that is no finite number (a
    boolean, a string or an integer no float holds included), a matrix size
    that is no integer, a classification ``D`` whose columns are not unit-norm
    (to 1e-12), and sizes or weights the family's sampler rejects (a
    Huber-LASSO ``A`` with ``m >= n`` or a ``density`` outside (0, 1], a
    classification with no samples). Keys are read in file order.
    """
    if not isinstance(obj, dict):
        raise ValueError("problem object must be a JSON object")
    version = obj.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # true and 1.0 equal 1 but are no version
        raise ValueError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    kind = obj.get("kind")
    if kind not in _CONTAINERS:
        raise ValueError(f"unknown problem kind {kind!r}")
    _, build, keys = _CONTAINERS[kind]
    allowed = {"schema_version", "kind", *keys}
    if extra := set(obj) - allowed:
        raise ValueError(f"unknown keys in problem object: {sorted(extra)}")
    if missing := allowed - set(obj):
        raise ValueError(f"missing keys in problem object: {sorted(missing)}")
    return build(**{key: read(obj, key) for key, (read, _) in keys.items()})
