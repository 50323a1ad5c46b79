import contextlib
import importlib.machinery
import json

import numpy as np
import pytest
import scipy.linalg

from prsqp import (
    NotPositiveDefinite,
    make_rng,
    normal_sample,
    sparse_normal_sample,
    spectral_norm,
)
import prsqp.core
from prsqp.core import as_matrix, as_vector, cholesky_solve, cholesky_spd, max_eigenvalue, min_eigenvalue
from toys import fresh_python


# ----- SPD solves through cholesky_spd ------------------------------------------


def _solve(M, b):
    return scipy.linalg.cho_solve(cholesky_spd(M), b)


def test_solve_spd_identity():
    v = _solve(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert np.allclose(v, [1.0, 2.0, 3.0], atol=1e-14)


def test_solve_spd_diagonal():
    v = _solve(np.array([[4.0, 0.0], [0.0, 2.0]]), np.array([8.0, 2.0]))
    assert np.allclose(v, [2.0, 1.0], atol=1e-14)


def test_solve_spd_indefinite_rejected():
    # eigenvalues 3 and -1
    M = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NotPositiveDefinite):
        cholesky_spd(M)


def test_solve_spd_dimension_checks():
    with pytest.raises(ValueError, match=r"^M must be square, got shape \(2, 3\)$"):
        cholesky_spd(np.ones((2, 3)))


def test_solve_spd_round_trip_random_spd():
    rng = make_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 51))
        B = normal_sample(rng, n * n).reshape(n, n)
        M = B.T @ B + np.eye(n)
        b = normal_sample(rng, n)
        v = _solve(M, b)
        assert np.max(np.abs(M @ v - b)) <= 1e-8


def test_cholesky_requires_symmetry():
    M = np.array([[2.0, 1.0], [0.0, 2.0]])
    with pytest.raises(ValueError):
        cholesky_spd(M)


def test_cholesky_symmetry_tolerance_is_relative_to_the_largest_entry():
    # the tolerance is 1e-10 * max(1, max|M|): 2e-10 here, and 2e-4 at 1e6 times the scale
    for scale in (1.0, 1e6):
        M = scale * np.array([[2.0, 1.0], [1.0, 2.0]])
        within, beyond = M.copy(), M.copy()
        within[1, 0] += 1.5e-10 * scale
        beyond[1, 0] += 2.5e-10 * scale
        cholesky_spd(within)
        with pytest.raises(ValueError):
            cholesky_spd(beyond)


# ----- the LAPACK binding ----------------------------------------------------------


def _spd_cases():
    # SPD matrices of sizes 1, 5 and 128, each in C and in Fortran order, with a right-hand side
    rng = make_rng(11)
    for n in (1, 5, 128):
        B = normal_sample(rng, n * n).reshape(n, n)
        M = B.T @ B + n * np.eye(n)
        b = normal_sample(rng, n)
        for order in ("C", "F"):
            yield np.array(M, order=order), b


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


def test_lapack_binding_matches_scipy_linalg_lapack_bit_for_bit():
    # loaded on its own, not taken from scipy.linalg; compared on one thread of
    # scipy's pool, as the binding runs (a multi-threaded dpotrf rounds otherwise)
    assert prsqp.core._dpotrf is not scipy.linalg.lapack.dpotrf
    for M, b in _spd_cases():
        factor = cholesky_spd(M)
        with prsqp.core._scipy_scope:
            c, info = scipy.linalg.lapack.dpotrf(M, lower=1, clean=0)
            assert info == 0 and _bits(factor[0]) == _bits(c)
            x, info = scipy.linalg.lapack.dpotrs(c, b, lower=1)
        assert info == 0 and _bits(cholesky_solve(factor, b)) == _bits(x)


def test_lapack_binding_reports_the_leading_minor_lapack_reports():
    for (M, _), k in zip(_spd_cases(), (1, 1, 3, 3, 100, 100)):
        M = M.copy()
        M[k - 1, k - 1] = -1.0
        _, info = scipy.linalg.lapack.dpotrf(M, lower=1, clean=0)
        assert info == k
        with pytest.raises(NotPositiveDefinite, match=f"^{k}-th leading minor "):
            cholesky_spd(M)


_BITS_ACROSS_IMPORT = """
import json, sys
import numpy as np
from prsqp.core import cholesky_solve, cholesky_spd
rng = np.random.default_rng(3)
B = rng.standard_normal((40, 40))
M, b = B.T @ B + np.eye(40), rng.standard_normal(40)
def bits():
    return [cholesky_spd(M)[0].tobytes().hex(), cholesky_solve(cholesky_spd(M), b).tobytes().hex()]
before = bits()
loaded_before = "scipy.linalg" in sys.modules
import scipy.linalg
c = scipy.linalg.lapack.dpotrf(M, lower=1, clean=0)[0]
x = scipy.linalg.lapack.dpotrs(c, b, lower=1)[0]
print(json.dumps({
    "loaded_before": loaded_before,
    "same_after_import": bits() == before,
    "same_as_scipy": [c.tobytes().hex(), x.tobytes().hex()] == before,
    "scipy_linalg_initialized": scipy.linalg.lapack.dpotrf is scipy.linalg._flapack.dpotrf,
}))
"""


def test_lapack_binding_keeps_its_bits_after_scipy_linalg_is_imported():
    done = fresh_python(_BITS_ACROSS_IMPORT)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "loaded_before": False,
        "same_after_import": True,
        "same_as_scipy": True,
        "scipy_linalg_initialized": True,
    }


def test_lapack_binding_without_flapack_is_an_import_error(monkeypatch):
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", lambda *args, **kwargs: None)
    with pytest.raises(ImportError, match="LAPACK extension _flapack was not found in .*linalg"):
        prsqp.core._bind_lapack()


_ONE_THREAD_POOL = """
import os
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS"):
    os.environ.pop(var, None)  # before numpy and scipy load their BLAS
import ctypes, importlib.machinery, json
import numpy as np
import scipy
import prsqp.core as core
if core._set_blas_threads is None:
    raise SystemExit(3)
spec = importlib.machinery.PathFinder.find_spec("_flapack", [os.path.join(os.path.dirname(scipy.__file__), "linalg")])
blas = ctypes.CDLL(spec.origin)
def symbol(name):  # scipy's OpenBLAS prefixes most of its names
    return getattr(blas, "scipy_" + name, None) or getattr(blas, name)
count = symbol("openblas_get_num_threads")
rng = np.random.default_rng(5)
B = rng.standard_normal((300, 300))
M, b = B.T @ B + 300 * np.eye(300), rng.standard_normal(300)
during = []
def counted(routine):
    def call(*args, **kwargs):
        during.append(count())
        return routine(*args, **kwargs)
    return call
potrf, potrs = core._dpotrf, core._dpotrs
core._dpotrf, core._dpotrs = counted(potrf), counted(potrs)
before = count()
factor = core.cholesky_spd(M)
x = core.cholesky_solve(factor, b)
after = count()
# the same routines called directly, with the pool set to one thread by hand
symbol("openblas_set_num_threads")(1)
c = potrf(M, lower=1, clean=0)[0]
direct = [c.tobytes().hex(), potrs(c, b, lower=1)[0].tobytes().hex()]
print(json.dumps({
    "before": before,
    "during": during,
    "after": after,
    "same_as_direct": [factor[0].tobytes().hex(), x.tobytes().hex()] == direct,
}))
"""


def test_lapack_calls_run_on_one_thread_of_scipys_pool():
    done = fresh_python(_ONE_THREAD_POOL)
    if done.returncode == 3:
        pytest.skip("scipy's BLAS exports no openblas_set_num_threads_local")
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    # the pool keeps the count it had, and the calls get one thread of it
    assert out["before"] >= 1 and out["after"] == out["before"]
    assert out["during"] == [1, 1] and out["same_as_direct"]


_OVERLAPPING_SCOPES = """
import os
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS"):
    os.environ.pop(var, None)  # before numpy and scipy load their BLAS
import ctypes, importlib.machinery, json, sys, threading, time
import numpy as np
import scipy
import prsqp.core as core
if core._set_blas_threads is None:
    raise SystemExit(3)
spec = importlib.machinery.PathFinder.find_spec("_flapack", [os.path.join(os.path.dirname(scipy.__file__), "linalg")])
blas = ctypes.CDLL(spec.origin)
count = getattr(blas, "scipy_openblas_get_num_threads", None) or blas.openblas_get_num_threads
rng = np.random.default_rng(7)
B = rng.standard_normal((300, 300))
M = B.T @ B + 300 * np.eye(300)
deadline = time.monotonic() + 1.5
def factor_until_deadline():
    while time.monotonic() < deadline:
        core.cholesky_spd(M)
before = count()
cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
threads = [threading.Thread(target=factor_until_deadline) for _ in range(cores + 2)]
interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)  # switch threads between any two bytecodes, mid-scope included
try:
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
finally:
    sys.setswitchinterval(interval)
print(json.dumps({"alive": sum(t.is_alive() for t in threads), "before": before, "after": count()}))
"""


def test_lapack_scopes_overlapping_in_threads_restore_the_pools_thread_count():
    # the pool's thread count is process-wide: scopes that each saved and
    # restored it would, overlapping, leave it at 1
    done = fresh_python(_OVERLAPPING_SCOPES)
    if done.returncode == 3:
        pytest.skip("scipy's BLAS exports no openblas_set_num_threads_local")
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["alive"] == 0
    assert out["after"] == out["before"]


_NUMPY_POOL_SCOPE = """
import os, sys
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS"):
    os.environ.pop(var, None)  # before numpy loads its BLAS
os.environ.update(dict(var.split("=") for var in sys.argv[1:]))
import ctypes, json
import numpy as np
import prsqp.core as core
if core._set_numpy_blas_threads is None:
    raise SystemExit(3)
try:
    from numpy._core import _multiarray_umath
except ImportError:
    from numpy.core import _multiarray_umath
blas = ctypes.CDLL(_multiarray_umath.__file__)
names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")
count = next(getattr(blas, name) for name in names if hasattr(blas, name))
counts = [count()]
with core.one_numpy_blas_thread():
    with core.one_numpy_blas_thread():
        counts.append(count())
    counts.append(count())
counts.append(count())
print(json.dumps(counts))
"""


def test_numpy_blas_scope_runs_numpys_pool_on_one_thread():
    done = fresh_python(_NUMPY_POOL_SCOPE)
    if done.returncode == 3:
        pytest.skip("numpy's BLAS exports no openblas_set_num_threads_local")
    assert done.returncode == 0, done.stderr
    before, nested, inner_left, after = json.loads(done.stdout)
    # a nested scope leaves the pool at one thread; the outer one restores it
    assert before >= 1 and after == before
    assert nested == inner_left == 1
    # a count the caller chose through OPENBLAS_NUM_THREADS stands
    done = fresh_python(_NUMPY_POOL_SCOPE, "OPENBLAS_NUM_THREADS=2")
    assert done.returncode == 0, done.stderr
    before, nested, inner_left, after = json.loads(done.stdout)
    assert before >= 1 and nested == inner_left == after == before


def test_lapack_calls_run_unscoped_without_the_thread_symbol(monkeypatch):
    # a library that exports no openblas_set_num_threads_local gets a scope that
    # changes nothing, and the factor and the solve run through it as they are
    expected = [(M, b, np.linalg.solve(M, b)) for M, b in _spd_cases()]
    scope = prsqp.core._one_thread_scope(None)
    assert isinstance(scope, contextlib.nullcontext)
    entered = []

    class Counted:  # the scope, counting the calls that enter it
        def __enter__(self):
            entered.append(1)
            return scope.__enter__()

        def __exit__(self, *exc):
            return scope.__exit__(*exc)

    monkeypatch.setattr(prsqp.core, "_scipy_scope", Counted())
    for M, b, x in expected:
        assert np.max(np.abs(cholesky_solve(cholesky_spd(M), b) - x)) <= 1e-10 * max(1.0, np.max(np.abs(x)))
    assert len(entered) == 2 * len(expected)


# ----- seeded sampling -------------------------------------------------------


def test_normal_sample_deterministic_for_equal_seeds():
    a = normal_sample(make_rng(42), 4)
    b = normal_sample(make_rng(42), 4)
    assert np.array_equal(a, b)


def test_rng_stream_stability_long():
    a = normal_sample(make_rng(123), 10_000)
    b = normal_sample(make_rng(123), 10_000)
    assert np.array_equal(a, b)


def test_normal_sample_moments():
    z = normal_sample(make_rng(0), 100_000)
    assert abs(float(np.mean(z))) <= 0.02
    assert abs(float(np.var(z)) - 1.0) <= 0.05


def _two_draw_box_muller(rng, n):
    # the transform as first written: two draws of m uniforms, one temporary per operation
    half = (n + 1) // 2
    u1 = 1.0 - rng.random(half)
    u2 = rng.random(half)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.empty(2 * half)
    z[:half] = radius * np.cos(2.0 * np.pi * u2)
    z[half:] = radius * np.sin(2.0 * np.pi * u2)
    return z[:n]


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n", [1, 2, 7, 10_000, 65_536])
def test_normal_sample_keeps_the_bits_and_the_stream_position(seed, n):
    # later draws (a LASSO support, classification labels) read on from where the sampler leaves the stream
    rng, ref_rng = make_rng(seed), make_rng(seed)
    z, ref = normal_sample(rng, n), _two_draw_box_muller(ref_rng, n)
    assert z.shape == (n,)
    assert z.tobytes() == ref.tobytes()
    assert rng.random() == ref_rng.random()


def test_normal_sample_rejects_empty():
    with pytest.raises(ValueError):
        normal_sample(make_rng(0), 0)


def test_sparse_sample_exact_support_size():
    z = sparse_normal_sample(make_rng(5), 10, 0.5)
    assert z.shape == (10,)
    assert int(np.count_nonzero(z)) == 5


def test_sparse_sample_full_density_has_no_zeros():
    z = sparse_normal_sample(make_rng(5), 50, 1.0)
    assert int(np.count_nonzero(z)) == 50


def test_sparse_sample_density_range():
    with pytest.raises(ValueError):
        sparse_normal_sample(make_rng(0), 10, 0.0)
    with pytest.raises(ValueError):
        sparse_normal_sample(make_rng(0), 10, 1.5)


def test_sparse_sample_needs_a_positive_length():
    for n in (0, -3):
        with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
            sparse_normal_sample(make_rng(0), n, 0.5)


# ----- spectral estimates ----------------------------------------------------


def test_spectral_estimates_on_diagonal():
    M = np.diag([1.0, 2.0, 3.0])
    assert abs(spectral_norm(M) - 3.0) <= 1e-6
    assert abs(min_eigenvalue(M) - 1.0) <= 1e-6
    assert abs(max_eigenvalue(M) - 3.0) <= 1e-6


def test_spectra_of_a_vector_are_those_of_its_diagonal_matrix():
    for v in ([-3.0, 2.0, 0.5], [1e-3] * 4, [0.0]):
        assert spectral_norm(np.array(v)) == spectral_norm(np.diag(v)) == max(abs(x) for x in v)
        assert min_eigenvalue(np.array(v)) == min_eigenvalue(np.diag(v)) == min(v)
        assert max_eigenvalue(np.array(v)) == max_eigenvalue(np.diag(v)) == max(v)


def test_spectral_estimates_signed_spectrum():
    M = np.diag([-4.0, 1.0, 2.0])
    assert abs(spectral_norm(M) - 4.0) <= 1e-6
    assert abs(min_eigenvalue(M) + 4.0) <= 1e-6
    assert abs(max_eigenvalue(M) - 2.0) <= 1e-6


def test_spectral_estimates_match_dense_eigensolver():
    rng = make_rng(11)
    for _ in range(10):
        B = normal_sample(rng, 36).reshape(6, 6)
        M = 0.5 * (B + B.T)
        eigs = np.linalg.eigvalsh(M)
        assert abs(spectral_norm(M) - np.max(np.abs(eigs))) <= 1e-6
        assert abs(min_eigenvalue(M) - eigs[0]) <= 1e-6
        assert abs(max_eigenvalue(M) - eigs[-1]) <= 1e-6


# ----- array validation ------------------------------------------------------


def test_as_vector_rejects_wrong_rank_and_length():
    with pytest.raises(ValueError, match=r"^vector must be 1-D, got shape \(2, 2\)$"):
        as_vector(np.ones((2, 2)))
    with pytest.raises(ValueError, match="^vector must have length 2, got 3$"):
        as_vector(np.ones(3), n=2)


def test_as_matrix_rejects_wrong_shape():
    with pytest.raises(ValueError, match=r"^matrix must have shape \(2, 3\), got \(2, 2\)$"):
        as_matrix(np.ones((2, 2)), shape=(2, 3))
