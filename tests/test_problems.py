import json
import re
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from prsqp import (
    CompositeProblem,
    Iterate,
    SolverParams,
    composite_objective,
    diagnostics_report,
    forward_difference,
    hessian_pair,
    make_classification,
    make_huber_lasso,
    make_quadratic,
    make_rng,
    normal_sample,
    problem_from_json,
    problem_to_json,
    quadratic_kkt_point,
    random_quadratic,
    run,
    suggest_params,
)
from prsqp.cli import _summarize
from prsqp.core import max_eigenvalue, min_eigenvalue
from prsqp.problems import _huber_deriv, _huber_value, _matrix_from_json, _matrix_to_json
from toys import central_diff, rel_err


# ----- huber ------------------------------------------------------------------


def _huber(z, mu):
    # the Huber-LASSO's value and derivative kernels at z
    return _huber_value(z, mu), _huber_deriv(z, mu)


def test_huber_frozen_values():
    assert _huber(0.0, 0.1) == (0.0, 0.0)
    v, d = _huber(0.05, 0.1)
    assert abs(v - 0.0125) <= 1e-15 and d == 0.5
    assert _huber(1.0, 0.1) == (0.95, 1.0)


def test_huber_elementwise_and_odd_symmetry():
    z = np.array([-1.0, -0.05, 0.0, 0.05, 1.0])
    value, deriv = _huber(z, 0.1)
    assert np.allclose(value, [0.95, 0.0125, 0.0, 0.0125, 0.95])
    assert np.allclose(deriv, [-1.0, -0.5, 0.0, 0.5, 1.0])
    # the problem's f and grad f are tau times their sum and their values
    P = make_huber_lasso(2, 5, tau=0.5, mu=0.1, rng=make_rng(6))
    assert P.eval_f(z) == 0.5 * float(value.sum())
    assert np.array_equal(P.grad_f(z), 0.5 * deriv)


def test_huber_boundary_continuity():
    mu = 0.3
    eps = 1e-9
    v_in, d_in = _huber(mu - eps, mu)
    v_at, d_at = _huber(mu, mu)
    assert abs(v_in - v_at) <= 1e-8
    assert abs(d_in - d_at) <= 1e-8
    assert v_at == mu / 2.0 and d_at == 1.0


def test_huber_requires_positive_knee():
    for mu in (0.0, -0.1):
        with pytest.raises(ValueError, match="tau and mu must be positive"):
            make_huber_lasso(3, 6, mu=mu, rng=make_rng(6))


# ----- forward difference -----------------------------------------------------


def test_forward_difference_n3():
    A = forward_difference(3)
    assert np.array_equal(A, np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]]))


def test_forward_difference_rejects_small_n():
    with pytest.raises(ValueError):
        forward_difference(1)


def test_forward_difference_spectrum():
    # eigenvalues of A^T A are 2 - 2 cos(k pi / n), k = 0..n-1
    n = 12
    A = forward_difference(n)
    AtA = A.T @ A
    ks = np.arange(n)
    expected = 2.0 - 2.0 * np.cos(ks * np.pi / n)
    assert abs(max_eigenvalue(AtA) - expected[-1]) <= 1e-6
    assert abs(min_eigenvalue(AtA) - 0.0) <= 1e-6


# ----- quadratic oracle -------------------------------------------------------


def test_quadratic_oracle_1d_first_order_point():
    P = make_quadratic([1.0], [0.0], [[1.0]])
    x, y, lam = quadratic_kkt_point(P)
    assert np.allclose(x, [0.5], atol=1e-12)
    assert np.allclose(y, [0.5], atol=1e-12)
    assert np.allclose(lam, [-0.5], atol=1e-12)


def test_quadratic_oracle_centered_at_origin():
    P = make_quadratic([0.0, 0.0], [0.0], [[1.0, 1.0]])
    x, y, lam = quadratic_kkt_point(P)
    assert np.max(np.abs(x)) <= 1e-12
    assert np.max(np.abs(y)) <= 1e-12
    assert np.max(np.abs(lam)) <= 1e-12


def test_quadratic_oracle_decoupled_map():
    P = make_quadratic([2.0], [0.7], [[0.0]])
    x, y, lam = quadratic_kkt_point(P)
    assert np.allclose(x, [2.0], atol=1e-12)
    assert np.allclose(y, [0.0], atol=1e-12)
    assert np.allclose(lam, [0.7], atol=1e-12)


def test_quadratic_oracle_rejects_other_families():
    P = make_huber_lasso(2, 5, rng=make_rng(6))
    with pytest.raises(TypeError, match="only available for quadratic instances"):
        quadratic_kkt_point(P)


def test_huber_lasso_needs_an_rng():
    with pytest.raises(TypeError, match="missing 1 required keyword-only argument: 'rng'"):
        make_huber_lasso(2, 5)


def test_quadratic_oracle_satisfies_first_order_system():
    rng = make_rng(3)
    for _ in range(10):
        P = random_quadratic(5, 5, rng)
        x, y, lam = quadratic_kkt_point(P)
        assert np.max(np.abs(P.grad_f(x) - P.apply_At(lam))) <= 1e-10
        assert np.max(np.abs(P.grad_g(y) + lam)) <= 1e-10
        assert np.max(np.abs(P.apply_A(x) - y)) <= 1e-10


def test_composite_objective_quadratic_half_point():
    # f = (x-1)^2/2, g = y^2/2, A = 1: F(1/2) = 1/8 + 1/8 = 1/4
    P = make_quadratic([1.0], [0.0], [[1.0]])
    assert abs(composite_objective(P, np.array([0.5])) - 0.25) <= 1e-15


# ----- classification instance -------------------------------------------------


def test_classification_coupling_is_forward_difference():
    P = make_classification(3, 4, rng=make_rng(1))
    assert np.array_equal(P.A, np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]]))
    assert P.n1 == 3 and P.n2 == 2


def test_classification_data_invariants():
    P = make_classification(20, 30, rng=make_rng(2))
    norms = np.linalg.norm(P.data.D, axis=0)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    assert np.all(np.abs(P.data.labels) == 1.0)


def test_classification_loss_at_origin():
    P = make_classification(10, 15, rng=make_rng(3))
    assert P.eval_f(np.zeros(10)) == 1.0
    assert np.max(np.abs(hessian_pair(P, np.zeros(10), np.zeros(9))[0])) == 0.0


def test_classification_gradient_matches_finite_differences():
    P = make_classification(8, 12, rng=make_rng(4))
    rng = make_rng(5)
    for _ in range(5):
        x = normal_sample(rng, 8)
        assert rel_err(central_diff(P.eval_f, x), P.grad_f(x)) <= 1e-6


def test_classification_requires_rng():
    with pytest.raises(TypeError, match="missing 1 required keyword-only argument: 'rng'"):
        make_classification(10, 10)


# ----- sparse recovery instance -------------------------------------------------


def test_lasso_data_invariants():
    P = make_huber_lasso(64, 256, rng=make_rng(6))
    assert np.array_equal(P.data.d, P.A @ P.data.u)
    assert int(np.count_nonzero(P.data.u)) == 128
    assert P.n1 == 256 and P.n2 == 64


def test_lasso_values_at_zero_and_planted_signal():
    P = make_huber_lasso(32, 64, rng=make_rng(7))
    assert P.eval_f(np.zeros(64)) == 0.0
    assert np.max(np.abs(P.grad_f(np.zeros(64)))) == 0.0
    # at the planted signal the residual term vanishes, leaving the smoothed-L1 part
    u, mu = P.data.u, P.data.mu
    expected = P.data.tau * float(np.sum(np.where(np.abs(u) < mu, u * u / (2.0 * mu), np.abs(u) - mu / 2.0)))
    assert abs(composite_objective(P, P.data.u) - expected) <= 1e-12


def test_lasso_gradient_matches_finite_differences():
    P = make_huber_lasso(16, 40, rng=make_rng(8))
    rng = make_rng(9)
    for _ in range(5):
        x = normal_sample(rng, 40)
        assert rel_err(central_diff(P.eval_f, x), P.grad_f(x)) <= 1e-6
        F = lambda u: composite_objective(P, u)
        gF = P.grad_f(x) + P.apply_At(P.grad_g(P.apply_A(x)))
        assert rel_err(central_diff(F, x), gF) <= 1e-6


def test_lasso_requires_underdetermined_shape():
    with pytest.raises(ValueError):
        make_huber_lasso(64, 64, rng=make_rng(0))


def test_lasso_paper_scale_builds():
    P = make_huber_lasso(512, 2048, rng=make_rng(10))
    assert P.A.shape == (512, 2048)
    assert int(np.count_nonzero(P.data.u)) == 1024


# ----- Hessian models -----------------------------------------------------------


def test_hessian_pair_quadratic_identities():
    # both identities are given as their diagonals
    P = make_quadratic([1.0, 0.0], [0.5], [[1.0, -1.0]])
    H_x, H_y = hessian_pair(P, np.zeros(2), np.zeros(1))
    assert np.array_equal(H_x, np.ones(2)) and H_x.shape == (2,)
    assert np.array_equal(H_y, np.ones(1)) and H_y.shape == (1,)


def test_hessian_pair_classification_at_origin():
    # a dense x-model and the diagonal of H_y = mu I
    mu = 0.001
    P = make_classification(6, 9, mu=mu, rng=make_rng(11))
    H_x, H_y = hessian_pair(P, np.zeros(6), np.zeros(5))
    assert H_x.shape == (6, 6) and np.max(np.abs(H_x)) == 0.0
    assert np.array_equal(H_y, np.full(5, mu))


def test_hessian_pair_lasso_outside_knee():
    P = make_huber_lasso(8, 16, rng=make_rng(12))
    x = np.full(16, 2.0)  # every coordinate beyond the knee: flat smoothed-L1 curvature
    H_x, H_y = hessian_pair(P, x, np.zeros(8))
    assert H_x.shape == (16,) and np.max(np.abs(H_x)) == 0.0
    assert np.array_equal(H_y, np.ones(8))
    x[3] = 0.5 * P.data.mu  # inside the knee
    assert np.flatnonzero(hessian_pair(P, x, np.zeros(8))[0]).tolist() == [3]


def test_hessian_pair_rejects_models_of_neither_shape():
    # a model is an (n, n) matrix or an (n,) diagonal; anything else is refused
    P = make_quadratic(np.zeros(3), np.zeros(2), np.ones((2, 3)))
    x, y = np.zeros(3), np.zeros(2)
    for name, n in (("hess_f_at", 3), ("hess_g_at", 2)):
        for shape in ((n, 1), (n - 1,), (n, n + 1), (n, n, 1), ()):
            Q = replace(P, **{name: lambda _, shape=shape: np.zeros(shape)})
            with pytest.raises(ValueError, match=name[:6]):
                hessian_pair(Q, x, y)
    Q = replace(P, hess_f_at=lambda _: np.eye(3), hess_g_at=lambda _: np.eye(2))
    assert [H.shape for H in hessian_pair(Q, x, y)] == [(3, 3), (2, 2)]


def test_hessian_pair_requires_a_symmetric_matrix_model():
    # the check sits where the model enters, so it names the callable, not a
    # metric built from it, and a diagonal model needs none
    P = make_quadratic(np.zeros(2), np.zeros(2), np.eye(2))
    x = y = np.zeros(2)
    skew = np.array([[2.0, 1.0], [0.0, 2.0]])
    for name, label in (("hess_f_at", "hess_f(x)"), ("hess_g_at", "hess_g(y)")):
        Q = replace(P, **{name: lambda _: skew})
        with pytest.raises(ValueError, match=f"^{re.escape(label)} must be symmetric "):
            hessian_pair(Q, x, y)


def test_hessian_pair_symmetry_tolerance_is_relative_to_the_largest_entry():
    # the tolerance is 1e-10 * max(1, max|H|): 2e-10 here, and 2e-4 at 1e6 times the scale
    P = make_quadratic(np.zeros(2), np.zeros(2), np.eye(2))
    x = y = np.zeros(2)
    for scale in (1.0, 1e6):
        H = scale * np.array([[2.0, 1.0], [1.0, 2.0]])
        within, beyond = H.copy(), H.copy()
        within[1, 0] += 1.5e-10 * scale
        beyond[1, 0] += 2.5e-10 * scale
        for block, name in enumerate(("hess_f_at", "hess_g_at")):
            assert np.array_equal(hessian_pair(replace(P, **{name: lambda _: within}), x, y)[block], within)
            with pytest.raises(ValueError, match="must be symmetric"):
                hessian_pair(replace(P, **{name: lambda _: beyond}), x, y)


def test_every_reader_of_a_non_symmetric_model_rejects_it_by_the_callables_name():
    # the quadratic form of [[1, 3], [0, 1]] has curvature down to -0.5; its
    # one triangle read as a symmetric matrix reported curvature 1 and was certified
    P = random_quadratic(2, 1, make_rng(3))
    Q = replace(P, hess_f_at=lambda _: np.array([[1.0, 3.0], [0.0, 1.0]]))
    message = r"^hess_f\(x\) must be symmetric \(relative tolerance 1e-10\)$"
    for read in (
        lambda: hessian_pair(Q, np.zeros(2), np.zeros(1)),
        lambda: diagnostics_report(Q, SolverParams()),
        lambda: suggest_params("alda", Q),
        lambda: run(Q, Iterate(np.zeros(2), np.zeros(1), np.zeros(1)), SolverParams()),
    ):
        with pytest.raises(ValueError, match=message):
            read()


def test_hessian_models_symmetric():
    rng = make_rng(13)
    P = make_classification(7, 11, rng=rng)
    x = normal_sample(rng, 7)
    H_x, H_y = hessian_pair(P, x, np.zeros(6))
    assert np.array_equal(H_x, H_x.T)
    assert np.array_equal(H_y, H_y.T)


# ----- values derived from A ------------------------------------------------------


def test_cached_spectra_match_coupling():
    P = make_classification(12, 10, rng=make_rng(14))
    AtA = P.A.T @ P.A
    eigs = np.linalg.eigvalsh(AtA)
    assert abs(P.max_eig_AtA - eigs[-1]) <= 1e-6
    assert abs(P.min_eig_AtA - max(eigs[0], 0.0)) <= 1e-6


SPECTRA = ("min_eig_AtA", "max_eig_AtA")


def _unformed(P):
    # which of the values cached on first read P holds, read without forming them
    return {name: name not in vars(P) for name in ("AtA", "AAt", "_spectral_range")}


def _count_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: calls.append(M.shape) or eigvalsh(M))
    return calls


def _eager_spectra(A):
    # reference: the spectral range (min, max) of A^T A computed eagerly from A
    m, n = A.shape
    eigs = np.linalg.eigvalsh(A @ A.T if m < n else A.T @ A)
    return (0.0 if m < n else max(float(eigs[0]), 0.0)), max(float(eigs[-1]), 0.0)


def _families():
    return [
        random_quadratic(5, 3, make_rng(16)),
        random_quadratic(3, 5, make_rng(17)),
        make_classification(12, 10, rng=make_rng(18)),
        make_huber_lasso(8, 16, rng=make_rng(19)),
    ]


def test_constructor_takes_only_what_A_does_not_give():
    given = [f.name for f in fields(CompositeProblem) if f.init]
    assert given == [
        "name", "A", "eval_f", "grad_f", "hess_f_at", "eval_g", "grad_g", "hess_g_at",
        "lipschitz_f", "lipschitz_g", "data",
    ]
    with pytest.raises(ValueError, match="init=False"):  # a size cannot be given
        replace(random_quadratic(3, 2, make_rng(15)), n1=4)


def test_sizes_are_the_shape_of_A():
    sizes = [(5, 3), (3, 5), (12, 11), (16, 8)]  # (n1, n2) the builders were asked for
    for P, (n1, n2) in zip(_families(), sizes):
        for built in (P, problem_from_json(problem_to_json(P))):
            assert (built.n1, built.n2) == (n1, n2)
            assert built.A.shape == (n2, n1)
    with pytest.raises(ValueError, match=r"^A must be 2-D, got shape \(3,\)$"):
        replace(random_quadratic(3, 2, make_rng(15)), A=np.ones(3))


def test_builds_compute_no_spectra_and_no_gram_matrix(monkeypatch):
    calls = _count_eigvalsh(monkeypatch)
    for P in _families():
        Q = problem_from_json(problem_to_json(P))
        repr(P)
        for built in (P, Q):
            assert all(_unformed(built).values())
    assert calls == []


def test_first_read_of_spectra_has_the_eager_bits():
    quadratic_square = make_quadratic(np.ones(4), np.zeros(4), normal_sample(make_rng(20), 16).reshape(4, 4))
    for P in _families() + [quadratic_square]:
        m, n = P.A.shape
        expected = _eager_spectra(P.A)
        first = SPECTRA[P.n1 % 2]  # either may be read first
        getattr(P, first)
        assert not _unformed(P)["_spectral_range"]
        assert _unformed(P)["AtA"] == (m < n)  # only m >= n forms A^T A, as before
        assert _unformed(P)["AAt"] == (m >= n)  # and only m < n forms A A^T
        for name, value in zip(SPECTRA, expected):
            assert repr(getattr(P, name)) == repr(value)
    assert quadratic_square.min_eig_AtA > 0.0


def test_replace_derives_sizes_gram_matrix_and_spectra_from_the_new_A(monkeypatch):
    P = make_huber_lasso(8, 16, rng=make_rng(23))
    Q = make_huber_lasso(8, 16, rng=make_rng(23))
    assert P == P and P != Q  # equal draws are still two problems
    B = normal_sample(make_rng(24), 30).reshape(6, 5)
    calls = _count_eigvalsh(monkeypatch)
    R = replace(P, A=B)
    assert all(_unformed(P).values()) and calls == []  # replace forms nothing on P
    assert (R.n1, R.n2) == (5, 6) and R != P
    assert R.AtA.tobytes() == (B.T @ B).tobytes()
    assert R.AAt.tobytes() == (B @ B.T).tobytes() and R.AAt is R.AAt
    assert (R.min_eig_AtA, R.max_eig_AtA) == _eager_spectra(B)
    assert all(_unformed(P).values())
    # a scaled coupling certifies what a fresh build of the same data does
    S = random_quadratic(4, 6, make_rng(3))
    S.AtA, S.max_eig_AtA  # formed on S first: the copy must not inherit them
    scaled = replace(S, A=2.0 * S.A)
    fresh = make_quadratic(S.data.c_f, S.data.c_g, 2.0 * S.A)
    assert scaled.AtA.tobytes() == fresh.AtA.tobytes()
    assert asdict(diagnostics_report(scaled, SolverParams())) == asdict(diagnostics_report(fresh, SolverParams()))


def test_lasso_solve_and_summary_leave_spectra_and_gram_matrix_unformed(monkeypatch):
    calls = _count_eigvalsh(monkeypatch)
    P = make_huber_lasso(8, 16, rng=make_rng(22))
    params = SolverParams(max_iter=10)
    result = run(P, Iterate(np.zeros(P.n1), np.zeros(P.n2), np.zeros(P.n2)), params)
    _summarize(P, result, 0.0, params)
    assert result.iterations == 10
    # the capacitance matrices read A A^T, which holds no spectrum
    assert _unformed(P) == {"AtA": True, "AAt": False, "_spectral_range": True}
    assert calls == []


# ----- serialization -------------------------------------------------------------


def test_matrix_json_round_trip():
    M = np.array([[1.5, -2.0], [0.0, 3.25], [1e-17, 7.0]])
    back = _matrix_from_json(_matrix_to_json(M))
    assert np.array_equal(M, back)


def test_quadratic_json_round_trip():
    P = make_quadratic([1.0, -2.0, 0.5], [0.25, 0.75], [[1.0, 0.0, 2.0], [0.0, -1.0, 1.0]])
    Q = problem_from_json(problem_to_json(P))
    assert np.array_equal(P.A, Q.A)
    rng = make_rng(15)
    for _ in range(3):
        x = normal_sample(rng, 3)
        y = normal_sample(rng, 2)
        assert P.eval_f(x) == Q.eval_f(x)
        assert P.eval_g(y) == Q.eval_g(y)
    a, b, c = quadratic_kkt_point(P)
    d, e, f = quadratic_kkt_point(Q)
    assert np.array_equal(a, d) and np.array_equal(b, e) and np.array_equal(c, f)


def test_problem_json_rejects_non_number_weights_and_non_integer_sizes():
    # true is no weight of 1, "0.1" no weight at all, and 1.5 no size of 1
    rng = make_rng(16)
    cls = problem_to_json(make_classification(5, 4, rng=rng))
    lasso = problem_to_json(make_huber_lasso(3, 6, rng=rng))
    for obj, key, bad in (
        (cls, "mu", True),
        (cls, "mu", "0.1"),
        (cls, "mu", float("nan")),
        (lasso, "tau", True),
        (lasso, "tau", float("inf")),
        (lasso, "mu", float("nan")),
        (lasso, "density", False),
        (lasso, "density", None),
        (lasso, "tau", 10**400),
    ):
        with pytest.raises(ValueError, match=f"{key} must be a finite real number, got {bad!r}"):
            problem_from_json({**obj, key: bad})
    row, column = _matrix_to_json(np.ones((1, 3))), _matrix_to_json(np.ones((3, 1)))
    for obj, key, bad in ((row, "rows", 1.5), (row, "rows", True), (column, "cols", 1.0), (column, "cols", "1")):
        with pytest.raises(ValueError, match=f"{key} must be an integer, got {bad!r}"):
            _matrix_from_json({**obj, key: bad})
    assert _matrix_from_json({**row, "rows": np.int64(1)}).shape == (1, 3)


def _with_first_entry(obj, key, value):
    # obj with the first entry of its array ``key`` (a list or a matrix object) replaced
    array = obj[key]
    if isinstance(array, dict):
        return {**obj, key: {**array, "data": [value, *array["data"][1:]]}}
    return {**obj, key: [value, *array[1:]]}


def test_problem_json_rejects_non_number_and_non_finite_array_entries():
    # true is no entry of 1, "2.5" no entry at all, and a NaN in u would give a NaN d
    rng = make_rng(16)
    quad = problem_to_json(random_quadratic(3, 2, rng))
    cls = problem_to_json(make_classification(5, 4, rng=rng))
    lasso = problem_to_json(make_huber_lasso(3, 6, rng=rng))
    arrays = ((quad, "c_f"), (quad, "c_g"), (quad, "A"), (cls, "D"), (cls, "labels"), (lasso, "A"), (lasso, "u"))
    for obj, key in arrays:
        name = "data" if isinstance(obj[key], dict) else key
        for bad in (True, False, "2.5", None, [1.0], float("nan"), float("inf"), 10**400):
            message = f"each entry of {name} must be a finite real number, got {bad!r}"
            with pytest.raises(ValueError, match=re.escape(message)):
                problem_from_json(_with_first_entry(obj, key, bad))
        if name != "data":
            with pytest.raises(ValueError, match=f"{key} must be a list of numbers, got str"):
                problem_from_json({**obj, key: "1.0"})
    # JSON integers are numbers
    assert np.array_equal(_matrix_from_json({"rows": 1, "cols": 2, "data": [1, np.int64(2)]}), [[1.0, 2.0]])
    assert problem_from_json(_with_first_entry(cls, "labels", 1)).data.labels[0] == 1.0


def test_builders_reject_nan_weights():
    # and infinite weights and non-finite arrays: every instance built can be saved and read back
    rng = make_rng(17)
    nan, inf = float("nan"), float("inf")
    for mu in (nan, inf):
        with pytest.raises(ValueError, match="mu must be positive"):
            make_classification(5, 4, mu=mu, rng=rng)
    for tau, mu in ((nan, 0.1), (1e-3, nan), (inf, 0.1), (1e-3, inf)):
        with pytest.raises(ValueError, match="tau and mu must be positive"):
            make_huber_lasso(3, 6, tau=tau, mu=mu, rng=rng)
    for name, args in (
        ("c_f", ([nan, 1.0], [0.0], [[1.0, 1.0]])),
        ("c_g", ([0.0, 1.0], [-inf], [[1.0, 1.0]])),
        ("A", ([0.0, 1.0], [0.0], [[1.0, inf]])),
    ):
        with pytest.raises(ValueError, match=f"^{name} must hold finite numbers only$"):
            make_quadratic(*args)


def test_problem_from_json_rejects_malformed_objects():
    rng = make_rng(19)
    cls = problem_to_json(make_classification(5, 4, rng=rng))
    lasso = problem_to_json(make_huber_lasso(3, 6, rng=rng))
    without_mu = {key: value for key, value in cls.items() if key != "mu"}
    keys = "['cols', 'data', 'order', 'rows']"
    for obj, message in (
        ([cls], "problem object must be a JSON object"),
        ({**cls, "schema_version": 2}, "unsupported schema_version 2 (expected 1)"),
        ({**cls, "schema_version": True}, "unsupported schema_version True (expected 1)"),
        ({**cls, "schema_version": 1.0}, "unsupported schema_version 1.0 (expected 1)"),
        ({**cls, "kind": "sudoku"}, "unknown problem kind 'sudoku'"),
        ({**cls, "A": lasso["A"]}, "unknown keys in problem object: ['A']"),
        (without_mu, "missing keys in problem object: ['mu']"),
        ({**cls, "D": {**cls["D"], "order": "C"}}, f"matrix object must have keys rows/cols/data, got {keys}"),
        ({**cls, "D": {**cls["D"], "rows": 4}}, "matrix data length 20 != rows*cols = 16"),
        ({**cls, "labels": [0.5, *cls["labels"][1:]]}, "labels must be +1 or -1"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            problem_from_json(obj)


def test_containers_reject_what_their_samplers_reject():
    # a loaded problem passes the checks a sampled one does: the LASSO's density
    # and m < n, the classification's T >= 1, whose f would read 0/0, and an A
    # with rows and columns, on which a solve raised numpy's errors
    rng = make_rng(20)
    cls = problem_to_json(make_classification(5, 4, rng=rng))
    lasso = problem_to_json(make_huber_lasso(3, 6, rng=rng))
    quad = problem_to_json(random_quadratic(2, 1, rng))
    tall = {"rows": 6, "cols": 3, "data": [float(v) for v in range(1, 19)]}
    empty = "A must have at least one row and one column, got shape {}"
    for obj, message in (
        ({**quad, "c_g": [], "A": {"rows": 0, "cols": 2, "data": []}}, empty.format((0, 2))),
        ({**quad, "c_f": [], "A": {"rows": 1, "cols": 0, "data": []}}, empty.format((1, 0))),
        ({**lasso, "A": {"rows": 0, "cols": 6, "data": []}}, empty.format((0, 6))),
        ({**lasso, "density": 5.0}, "density must lie in (0, 1], got 5.0"),
        ({**lasso, "density": 0.0}, "density must lie in (0, 1], got 0.0"),
        ({**lasso, "A": tall, "u": [1.0, 0.0, -1.0]}, "need m < n (underdetermined recovery), got m=6, n=3"),
        ({**cls, "D": {"rows": 5, "cols": 0, "data": []}, "labels": []}, "need n >= 2 and T >= 1, got n=5, T=0"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            problem_from_json(obj)
    # the samplers give the same messages
    for build, message in (
        (lambda: make_huber_lasso(3, 6, density=5.0, rng=rng), "density must lie in (0, 1], got 5.0"),
        (lambda: make_huber_lasso(6, 3, rng=rng), "need m < n (underdetermined recovery), got m=6, n=3"),
        (lambda: make_classification(5, 0, rng=rng), "need n >= 2 and T >= 1, got n=5, T=0"),
        (lambda: make_quadratic([1.0, 2.0], [], np.zeros((0, 2))), empty.format((0, 2))),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()
    # a sampler checks its sizes, and names them, before it draws
    state = rng.bit_generator.state
    for build, message in (
        (lambda: make_huber_lasso(0, 6, rng=rng), "need m >= 1 and n >= 1, got m=0, n=6"),
        (lambda: make_huber_lasso(2, -3, rng=rng), "need m >= 1 and n >= 1, got m=2, n=-3"),
        (lambda: make_huber_lasso(-1, -2, rng=rng), "need m >= 1 and n >= 1, got m=-1, n=-2"),
        (lambda: make_huber_lasso(6, 3, rng=rng), "need m < n (underdetermined recovery), got m=6, n=3"),
        (lambda: random_quadratic(2, 0, rng), "need n1 >= 1 and n2 >= 1, got n1=2, n2=0"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()
        assert rng.bit_generator.state == state


def test_problem_to_json_refuses_problems_its_container_would_not_rebuild():
    # a classification container stores no A, and a LASSO one no d = A u
    rng = make_rng(21)
    cls, lasso = make_classification(5, 4, rng=rng), make_huber_lasso(3, 6, rng=rng)
    for P, message in (
        (replace(cls, A=2 * cls.A), "'classification': A is not the forward-difference matrix"),
        (replace(lasso, A=2 * lasso.A), "'huber_lasso': d is not A @ u"),
    ):
        with pytest.raises(ValueError, match=f"^cannot serialize problem {re.escape(message)}$"):
            problem_to_json(P)
    with pytest.raises(TypeError, match="^cannot serialize problem 'custom'$"):
        problem_to_json(replace(cls, name="custom", data=None))


def test_classification_container_requires_unit_norm_columns():
    # its lipschitz_f = 4 / (3 sqrt 3) holds for unit-norm feature columns only
    obj = problem_to_json(make_classification(6, 5, rng=make_rng(3)))
    D = obj["D"]
    first_column_halved = [v / 2 if i % D["cols"] == 0 else v for i, v in enumerate(D["data"])]
    for data in ([10.0 * v for v in D["data"]], [(1 + 1e-11) * v for v in D["data"]], first_column_halved):
        with pytest.raises(ValueError, match="^D must have unit-norm columns, got norms "):
            problem_from_json({**obj, "D": {**D, "data": data}})
    assert problem_from_json(obj).lipschitz_f == 4.0 / (3.0 * np.sqrt(3.0))
    # sampled columns are unit-norm to rounding, well inside the tolerance
    problem_from_json(problem_to_json(make_classification(100, 100, rng=make_rng(1))))


def test_containers_pin_their_key_order_and_round_trip_byte_for_byte():
    rng = make_rng(18)
    matrix_keys = ["rows", "cols", "data"]
    for P, keys, matrix in (
        (random_quadratic(4, 3, rng), ["schema_version", "kind", "c_f", "c_g", "A"], "A"),
        (make_classification(6, 5, rng=rng), ["schema_version", "kind", "mu", "D", "labels"], "D"),
        (make_huber_lasso(4, 9, rng=rng), ["schema_version", "kind", "tau", "mu", "density", "A", "u"], "A"),
    ):
        obj = problem_to_json(P)
        assert list(obj) == keys and list(obj[matrix]) == matrix_keys
        text = json.dumps(obj)
        assert json.dumps(problem_to_json(problem_from_json(json.loads(text)))) == text
    # keys are read in file order: a bad mu is named before a bad entry of D
    cls = problem_to_json(make_classification(6, 5, rng=rng))
    with pytest.raises(ValueError, match="^mu must be a finite real number"):
        problem_from_json({**_with_first_entry(cls, "D", True), "mu": True})
