"""Shared numerical kernels: validated linear algebra, seeded sampling, spectral estimates.

Everything downstream (problem builders, the splitting solver, the diagnostics)
funnels its linear algebra and randomness through this module so that error
handling and reproducibility live in one place.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg


class DimensionMismatch(ValueError):
    """An array argument has the wrong shape for the requested operation."""


class NotPositiveDefinite(np.linalg.LinAlgError):
    """A matrix required to be symmetric positive definite failed its Cholesky factorization."""


class UnknownLipschitz(ValueError):
    """A computation needs a gradient Lipschitz constant the problem does not provide."""


# ----- array validation ---------------------------------------------------


def as_vector(v, n=None, name="vector"):
    """Coerce to a float64 1-D array, optionally checking its length."""
    out = np.asarray(v, dtype=float)
    if out.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {out.shape}")
    if n is not None and out.shape[0] != n:
        raise DimensionMismatch(f"{name} must have length {n}, got {out.shape[0]}")
    return out


def as_matrix(M, shape=None, name="matrix"):
    """Coerce to a float64 2-D array, optionally checking its shape."""
    out = np.asarray(M, dtype=float)
    if out.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {out.shape}")
    if shape is not None and out.shape != tuple(shape):
        raise DimensionMismatch(f"{name} must have shape {tuple(shape)}, got {out.shape}")
    return out


# ----- symmetric positive definite solves ---------------------------------


def cholesky_spd(M):
    """Lower Cholesky factor of a symmetric matrix, or raise :class:`NotPositiveDefinite`.

    ``M`` must be symmetric to ``max|M - M^T| <= 1e-10 * max(1, max|M|)``,
    else :class:`ValueError`. The returned object is the ``(factor, lower)``
    pair accepted by :func:`scipy.linalg.cho_solve`.
    """
    M = as_matrix(M, name="M")
    n = M.shape[0]
    if M.shape[1] != n:
        raise DimensionMismatch(f"M must be square, got shape {M.shape}")
    # an exactly symmetric M (the common case) skips the tolerance scan's temporaries
    if M.size and not np.array_equal(M, M.T):
        scale = max(1.0, float(np.abs(M).max()))
        if float(np.abs(M - M.T).max()) > 1e-10 * scale:
            raise ValueError("M must be symmetric (relative tolerance 1e-10)")
    try:
        return scipy.linalg.cho_factor(M, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from None


def solve_spd(M, b):
    """Solve ``M x = b`` for symmetric positive definite ``M`` via Cholesky.

    Raises
    ------
    NotPositiveDefinite
        If the Cholesky factorization fails (``M`` indefinite or singular).
    DimensionMismatch
        If ``M`` is not square or ``b`` has the wrong length.
    """
    M = as_matrix(M, name="M")
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"M must be square, got shape {M.shape}")
    b = as_vector(b, n=M.shape[0], name="b")
    factor = cholesky_spd(M)
    return scipy.linalg.cho_solve(factor, b, check_finite=False)


# ----- seeded randomness ---------------------------------------------------


def make_rng(seed):
    """A PCG64 generator for the given integer seed.

    Equal seeds give bit-equal streams; all sampling in this package goes
    through the functions below so runs are reproducible across platforms.
    """
    return np.random.Generator(np.random.PCG64(int(seed)))


def normal_sample(rng, n):
    """Draw ``n`` standard normal variates via the Box-Muller transform.

    The transform is fixed so streams are reproducible independent of numpy's
    internal normal algorithm: with ``m = ceil(n/2)`` uniforms ``u1, u2`` drawn
    in that order, ``u1`` is mapped to ``(0, 1]`` as ``1 - u1`` (avoiding
    ``log 0``) and the output is

        ``r = sqrt(-2 log(1 - u1))``,
        ``z = [r cos(2 pi u2), r sin(2 pi u2)][:n]``.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    half = (n + 1) // 2
    u1 = 1.0 - rng.random(half)
    u2 = rng.random(half)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.empty(2 * half)
    z[:half] = radius * np.cos(2.0 * np.pi * u2)
    z[half:] = radius * np.sin(2.0 * np.pi * u2)
    return z[:n]


def sparse_normal_sample(rng, n, density):
    """Length-``n`` vector with ``round(density * n)`` normal entries, rest exact zeros.

    Support positions are drawn first (uniformly, without replacement), then the
    values via :func:`normal_sample`; the consumption order is part of the
    reproducibility contract.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must lie in (0, 1], got {density}")
    nnz = int(round(density * n))
    out = np.zeros(n)
    if nnz > 0:
        support = rng.choice(n, size=nnz, replace=False)
        out[support] = normal_sample(rng, nnz)
    return out


# ----- spectral estimates (power iteration) --------------------------------

_START_SEED = 0x5EED  # fixed start vector => deterministic estimates


def _power_iteration(matvec, n, tol, max_iter):
    # Dominant eigenvalue of a symmetric PSD-like operator given by matvec.
    # Returns (rayleigh, converged).
    v = make_rng(_START_SEED).random(n) - 0.5
    nv = np.linalg.norm(v)
    if nv == 0.0 or n == 0:
        return 0.0, True
    v /= nv
    theta = 0.0
    for _ in range(max_iter):
        w = matvec(v)
        theta = float(v @ w)
        if np.linalg.norm(w - theta * v) <= tol * max(1.0, abs(theta)):
            return theta, True
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0, True  # v lies in the null space and M v = 0 exactly
        v = w / nw
    return theta, False


def spectral_norm(M, tol=1e-8, max_iter=10_000):
    """Largest singular value of symmetric ``M`` by power iteration on ``M @ M``.

    Squaring makes the dominant eigenvalue nonnegative, so the iteration cannot
    oscillate between a +/- eigenvalue pair of equal modulus.
    """
    M = as_matrix(M, name="M")
    theta, _ = _power_iteration(lambda v: M @ (M @ v), M.shape[0], tol, max_iter)
    return float(np.sqrt(max(theta, 0.0)))


def min_eigenvalue(M, tol=1e-8, max_iter=10_000):
    """Smallest eigenvalue of symmetric ``M``, or ``None`` if the estimate did not converge.

    Power iteration on the shifted matrix ``s I - M`` with ``s = ||M||_2``,
    whose spectrum is nonnegative with dominant eigenvalue ``s - lambda_min``.
    Callers should substitute a safe lower bound (e.g. ``-||M||_2``) on ``None``.
    """
    M = as_matrix(M, name="M")
    s = spectral_norm(M, tol=tol, max_iter=max_iter)
    theta, ok = _power_iteration(lambda v: s * v - M @ v, M.shape[0], tol, max_iter)
    if not ok:
        return None
    return float(s - theta)


def max_eigenvalue(M, tol=1e-8, max_iter=10_000):
    """Largest eigenvalue of symmetric ``M``, or ``None`` if the estimate did not converge."""
    M = as_matrix(M, name="M")
    s = spectral_norm(M, tol=tol, max_iter=max_iter)
    theta, ok = _power_iteration(lambda v: s * v + M @ v, M.shape[0], tol, max_iter)
    if not ok:
        return None
    return float(theta - s)
