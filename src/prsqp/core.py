"""Shared numerical kernels: validated linear algebra, seeded sampling, spectra.

Everything downstream (problem builders, the splitting solver, the diagnostics)
funnels its linear algebra and randomness through this module so that error
handling and reproducibility live in one place. It is the only module that
imports scipy, and from scipy it binds two LAPACK routines, ``dpotrf`` and
``dpotrs``, which run on one thread of scipy's BLAS pool (see
:func:`_bind_lapack`). numpy's BLAS pool runs on one thread only inside
:func:`one_numpy_blas_thread`, and there only unless ``OPENBLAS_NUM_THREADS``
is set.
"""

from __future__ import annotations

import contextlib
import ctypes
import importlib.machinery
import importlib.util
import os
import threading

import numpy as np
import scipy

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath


class NotPositiveDefinite(np.linalg.LinAlgError):
    """A matrix required to be symmetric positive definite failed its Cholesky factorization."""


# ----- array validation ---------------------------------------------------


def as_vector(v, n=None, name="vector"):
    """Coerce to a float64 1-D array, optionally checking its length."""
    out = np.asarray(v, dtype=float)
    if out.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {out.shape}")
    if n is not None and out.shape[0] != n:
        raise ValueError(f"{name} must have length {n}, got {out.shape[0]}")
    return out


def as_matrix(M, shape=None, name="matrix"):
    """Coerce to a float64 2-D array, optionally checking its shape."""
    out = np.asarray(M, dtype=float)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if shape is not None and out.shape != tuple(shape):
        raise ValueError(f"{name} must have shape {tuple(shape)}, got {out.shape}")
    return out


# ----- symmetric positive definite factorization ---------------------------


def _bind_lapack():
    """``(dpotrf, dpotrs, set_threads)`` from scipy's compiled LAPACK wrappers.

    ``dpotrf`` and ``dpotrs`` are the functions ``scipy.linalg.lapack``
    re-exports from its extension module ``_flapack``. That module is loaded
    here on its own, kept out of ``sys.modules``, so that the ``scipy.linalg``
    package initializer, which imports about 85 modules prsqp never calls,
    does not run, and a later ``import scipy.linalg`` initializes as usual.
    ``set_threads`` is OpenBLAS's ``openblas_set_num_threads_local`` from the
    library behind that module, which sets the thread count of scipy's BLAS
    pool and returns the previous one, or ``None`` where the library exports
    no such symbol.
    """
    linalg_dir = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    spec = importlib.machinery.PathFinder.find_spec("_flapack", [linalg_dir])
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack was not found in {linalg_dir}")
    lapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lapack)
    return lapack.dpotrf, lapack.dpotrs, _thread_setter(spec.origin)


def _thread_setter(extension):
    # openblas_set_num_threads_local of the library behind the extension
    # module at path extension, or None where it exports no such symbol
    set_threads = getattr(ctypes.CDLL(extension), "openblas_set_num_threads_local", None)
    if set_threads is not None:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], ctypes.c_int
    return set_threads


_dpotrf, _dpotrs, _set_blas_threads = _bind_lapack()

# the same symbol in the OpenBLAS behind numpy's products
_set_numpy_blas_threads = _thread_setter(_multiarray_umath.__file__)


class _OneThreadScope:
    # a reentrant scope in which an OpenBLAS pool runs on one thread. The
    # pool's count is process-wide, so scopes overlapping in several Python
    # threads share one: the first saves the count and sets 1, the last
    # restores it, so no scope restores another's 1.

    def __init__(self, set_threads):
        self._set_threads = set_threads
        self._lock = threading.Lock()
        self._open = 0
        self._saved = None

    def __enter__(self):
        with self._lock:
            if self._open == 0:
                self._saved = self._set_threads(1)
            self._open += 1

    def __exit__(self, *exc):
        with self._lock:
            self._open -= 1
            if self._open == 0:
                self._set_threads(self._saved)


def _one_thread_scope(set_threads):
    # the scope of set_threads' pool, or one that changes nothing where there is no setter
    return contextlib.nullcontext() if set_threads is None else _OneThreadScope(set_threads)


# LAPACK runs on one thread of scipy's pool: it and numpy's pool, taking turns on the same cores, slow each other down
_scipy_scope = _one_thread_scope(_set_blas_threads)
_numpy_scope = _one_thread_scope(_set_numpy_blas_threads)


def one_numpy_blas_thread():
    """A scope in which numpy's OpenBLAS pool runs on one thread.

    Scopes may nest and overlap across Python threads; the pool gets its
    thread count back when the last one ends. The scope changes nothing where
    ``OPENBLAS_NUM_THREADS`` is set, since the caller has then chosen the
    count, or where numpy's BLAS exports no ``openblas_set_num_threads_local``.
    """
    return contextlib.nullcontext() if "OPENBLAS_NUM_THREADS" in os.environ else _numpy_scope


def cholesky_spd(M):
    """Lower Cholesky factor of a symmetric matrix, or raise :class:`NotPositiveDefinite`.

    ``M`` must be symmetric to ``max|M - M^T| <= 1e-10 * max(1, max|M|)``,
    else :class:`ValueError`. The returned object is the ``(factor, lower)``
    pair accepted by :func:`cholesky_solve` (and :func:`scipy.linalg.cho_solve`);
    the factor is the output of LAPACK ``dpotrf``, bound in this module, as it
    stands (the upper triangle is not cleared).
    """
    M = as_matrix(M, name="M")
    n = M.shape[0]
    if M.shape[1] != n:
        raise ValueError(f"M must be square, got shape {M.shape}")
    # an exactly symmetric M (the common case) skips the tolerance scan's temporaries
    if M.size and not np.array_equal(M, M.T):
        scale = max(1.0, float(np.abs(M).max()))
        if float(np.abs(M - M.T).max()) > 1e-10 * scale:
            raise ValueError("M must be symmetric (relative tolerance 1e-10)")
    with _scipy_scope:
        c, info = _dpotrf(M, lower=1, clean=0)
    if info > 0:
        raise NotPositiveDefinite(f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return c, True


def cholesky_solve(factor, b):
    """``M^{-1} b`` through LAPACK ``dpotrs``, for the ``(c, lower)`` factor of ``M`` from :func:`cholesky_spd`."""
    with _scipy_scope:
        x, info = _dpotrs(factor[0], b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


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
    internal normal algorithm: with ``m = ceil(n/2)``, ``u1`` and ``u2`` are
    the first and second halves of one draw of ``2m`` uniforms (the stream of
    two draws of ``m``), ``u1`` is mapped to ``(0, 1]`` as ``1 - u1``
    (avoiding ``log 0``) and the output is

        ``r = sqrt(-2 log(1 - u1))``,
        ``z = [r cos(2 pi u2), r sin(2 pi u2)][:n]``,

    computed in the buffer of the draw, which is returned.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    half = (n + 1) // 2
    z = rng.random(2 * half)
    radius, angle = z[:half], z[half:]  # u1 and u2, overwritten in place
    np.subtract(1.0, radius, out=radius)
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * np.pi
    cos = np.cos(angle)
    np.sin(angle, out=angle)
    angle *= radius
    radius *= cos
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


# ----- spectra of symmetric matrices -----------------------------------------


def _eigenvalues(M):
    # ascending eigenvalues of symmetric M; a 1-D M stands for the diagonal
    # matrix with that diagonal (the form of a diagonal Hessian model)
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        return np.sort(M)
    return np.linalg.eigvalsh(as_matrix(M, name="M"))


def spectral_norm(M):
    """Largest singular value of symmetric ``M``: its largest ``|eigenvalue|``.

    Here and below, a 1-D ``M`` stands for the diagonal matrix with that
    diagonal, whose eigenvalues are its entries.
    """
    return float(np.max(np.abs(_eigenvalues(M))))


# not exported: only perfbench/tracer.py reads these two, by name from this module
def min_eigenvalue(M):
    """Smallest eigenvalue of symmetric ``M``."""
    return float(_eigenvalues(M)[0])


def max_eigenvalue(M):
    """Largest eigenvalue of symmetric ``M``."""
    return float(_eigenvalues(M)[-1])
