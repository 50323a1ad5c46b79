import math
from dataclasses import FrozenInstanceError, asdict, astuple, replace
from types import SimpleNamespace

import numpy as np
import pytest

import prsqp.solver
from prsqp import (
    CompositeProblem,
    DimensionMismatch,
    Iterate,
    LineSearchFailed,
    NotPositiveDefinite,
    NumericalError,
    SolveResult,
    SolveStatus,
    SolverParams,
    composite_objective,
    diagnostics_report,
    dual_update,
    eval_alf,
    eval_merit_hat,
    hessian_pair,
    hybrid_accelerate,
    initial_state,
    iterate_once,
    kkt_residual,
    line_search,
    make_classification,
    make_huber_lasso,
    make_quadratic,
    make_rng,
    normal_sample,
    quadratic_kkt_point,
    random_quadratic,
    run,
    spectral_bounds,
    spectral_norm,
    suggest_params,
    validate_params,
)
from toys import decoupled_problem, scalar_problem


def _w(x, y, lam):
    return Iterate(np.atleast_1d(x), np.atleast_1d(y), np.atleast_1d(lam))


# ----- parameter validation -----------------------------------------------------


def _violations(**bad):
    # the violations SolverParams(**bad) raises, joined by "; " in its message
    with pytest.raises(ValueError) as raised:
        SolverParams(**bad)
    return str(raised.value).split("; ")


def test_validate_params_flags_fast_acceleration():
    out = _violations(rho=0.4, alpha=2.0)
    assert len(out) == 1 and "alpha" in out[0]
    assert validate_params(SolverParams(rho=0.4, alpha=2.0, relaxed_alpha=True)) == []


def test_validate_params_flags_cancelling_dual_steps():
    out = _violations(r=1.0, s=-1.0)
    assert len(out) == 1 and "r + s" in out[0]
    # any object with the attributes is read, so a guard can be probed past the constructor
    duck = SimpleNamespace(**{**asdict(SolverParams()), "r": 1.0, "s": -1.0})
    assert validate_params(duck) == out


def test_validate_params_accepts_reference_defaults():
    ok = dict(rho=0.4, nu=0.6, beta=1.0, ell=5.0, sigma=10.0, r=0.1, s=1.0, alpha=0.0)
    assert validate_params(SolverParams(**ok)) == []
    assert SolverParams(**ok) == SolverParams()


def test_solver_params_constructor_enforces_ranges():
    with pytest.raises(ValueError):
        SolverParams(rho=1.5)
    with pytest.raises(ValueError):
        SolverParams(alpha=2.0)  # 2 >= 1/0.4 - 1
    with pytest.raises(ValueError):
        SolverParams(r=1.0, s=-1.0)
    with pytest.raises(ValueError):
        SolverParams(beta=0.0)
    relaxed = SolverParams(alpha=2.0, relaxed_alpha=True)
    assert relaxed.alpha == 2.0
    with pytest.raises(ValueError, match="rho must lie in"):
        replace(relaxed, rho=1.5)  # a changed copy is validated anew


def test_validate_params_rejects_negative_or_nan_kkt_tolerance():
    for bad in (-1.0, float("nan")):
        out = _violations(tol_kkt=bad)
        assert len(out) == 1 and "tol_kkt" in out[0]
    assert SolverParams(tol_kkt=0.0).tol_kkt == 0.0
    assert SolverParams(tol_kkt=float("inf")).tol_kkt == float("inf")


def test_validate_params_rejects_non_finite_weights():
    params = SolverParams()
    for name in ("beta", "ell", "sigma", "alpha", "r", "s"):
        for bad in (float("inf"), float("nan")):
            out = _violations(**{name: bad}, relaxed_alpha=True)
            assert len(out) == 1 and name in out[0]
            with pytest.raises(FrozenInstanceError):
                setattr(params, name, bad)
    assert params == SolverParams()


def test_validate_params_requires_integer_loop_limits():
    P = make_quadratic([1.0, 2.0], [0.0], [[1.0, 1.0]])
    w0 = _w(np.zeros(2), 0.0, 0.0)
    for name in ("max_iter", "max_backtracks"):
        for bad in (20.5, 2.0, True, False, "3"):
            assert _violations(**{name: bad}) == [f"{name} must be an integer, got {bad!r}"]
        assert _violations(**{name: 0}) == [f"{name} must be >= 1, got 0"]
        assert getattr(SolverParams(**{name: np.int64(3)}), name) == 3
        with pytest.raises(FrozenInstanceError):
            setattr(SolverParams(), name, 2.5)
    result = run(P, w0, SolverParams(max_iter=np.int64(3), max_backtracks=np.int32(5), tol_step=0.0))
    assert result.iterations == 3


def test_validate_params_rejects_bools_for_real_parameters():
    assert _violations(beta=True, tol_step=True) == [
        "beta must be a real number, got True",
        "tol_step must be a real number, got True",
    ]
    for name in ("rho", "nu", "alpha", "beta", "ell", "sigma", "r", "s", "tol_step", "tol_kkt"):
        for bad in (True, False, np.True_):
            assert f"{name} must be a real number, got {bad!r}" in _violations(**{name: bad})
    assert validate_params(SolverParams(beta=1, ell=np.float64(2.0), sigma=np.int64(3))) == []


def test_validate_params_requires_a_boolean_relaxed_alpha():
    # a truthy string must neither pass nor relax the acceleration range
    for bad in ("false", "true", 1, None):
        violations = _violations(alpha=2.0, relaxed_alpha=bad)
        assert violations[0] == f"relaxed_alpha must be a boolean, got {bad!r}"
        assert any(v.startswith("alpha = 2.0 is not below") for v in violations)
    for good in (True, np.True_):
        assert validate_params(SolverParams(alpha=2.0, relaxed_alpha=good)) == []
    assert SolverParams(alpha=2.0, relaxed_alpha=np.True_).alpha == 2.0


def test_params_cannot_change_under_a_state():
    # a state's metrics are factored at its params' weights, so a write to the
    # params would leave them stale; a changed set is a new object and a new state
    P = make_huber_lasso(16, 64, rng=make_rng(40))
    params = SolverParams()
    state = initial_state(P, _zero_start(P), params)
    with pytest.raises(FrozenInstanceError):
        params.beta = 100.0
    assert state.params.beta == state.metric_x.beta == 1.0
    out = iterate_once(state)
    assert out.state.metric_x is state.metric_x
    fresh = iterate_once(initial_state(P, _zero_start(P), SolverParams()))
    assert out.record.L_beta == fresh.record.L_beta
    changed = initial_state(P, _zero_start(P), replace(params, beta=100.0))
    assert changed.params.beta == changed.metric_x.beta == 100.0


# ----- model subproblems ----------------------------------------------------------


def _half_square_problem():
    # f = x^2/2, g = y^2/2, A = 1
    return make_quadratic([0.0], [0.0], [[1.0]])


def _internals(P, w, params, H_x=None, H_y=None):
    # the per-block internals of one iteration from w, at the models given or at w's
    return iterate_once(initial_state(P, w, params, H_x, H_y), keep_internals=True).internals


def test_solve_x_stationary_input_is_fixed():
    P = _half_square_problem()
    params = SolverParams(beta=1.0, ell=1.0)
    x = _internals(P, _w(0.0, 0.0, 0.0), params)["x_tilde"]
    assert np.allclose(x, [0.0], atol=1e-15)


def test_solve_x_frozen_scalar_cases():
    P = _half_square_problem()
    params = SolverParams(beta=1.0, ell=1.0)
    # metric 1 + 1 + 1 = 3; gradient 3 - (0 - 3) = 6 gives 3 - 2 = 1
    x = _internals(P, _w(3.0, 0.0, 0.0), params)["x_tilde"]
    assert np.allclose(x, [1.0], atol=1e-12)
    # gradient 0 - (1 + 2) = -3 gives 0 + 1 = 1
    x = _internals(P, _w(0.0, 2.0, 1.0), params)["x_tilde"]
    assert np.allclose(x, [1.0], atol=1e-12)


def test_solve_y_frozen_scalar_case():
    P = _half_square_problem()
    # from (1, 0, 2) the x-gradient 1 - (2 - 1) vanishes, so x stays at 1, and
    # r = 2 gives lam_half = 2 - 2 (1 - 0) = 0: the y step runs at x_next = 1,
    # y = 0, lam_half = 0
    params = SolverParams(beta=1.0, sigma=1.0, r=2.0)
    it = _internals(P, _w(1.0, 0.0, 2.0), params)
    assert np.array_equal(it["d_x"], [0.0]) and np.array_equal(it["lam_half"], [0.0])
    # metric 1 + (1 + 1) = 3; gradient 0 + 0 - 1 = -1 moves y toward A x
    assert np.allclose(it["y_tilde"], [1.0 / 3.0], atol=1e-12)


def test_solve_y_stationary_input_is_fixed():
    P = _half_square_problem()
    params = SolverParams(beta=1.0, sigma=1.0)
    # x = y and matching multiplier: the x step stays at 0, lam_half = 0 and
    # gy = y + 0 - 0 = 0 at y = 0
    it = _internals(P, _w(0.0, 0.0, 0.0), params)
    assert np.array_equal(it["lam_half"], [0.0])
    assert np.allclose(it["y_tilde"], [0.0], atol=1e-15)


def test_subproblem_model_stationarity_random():
    rng = make_rng(30)
    params = SolverParams()
    for _ in range(10):
        P = random_quadratic(5, 4, rng)
        w = Iterate(normal_sample(rng, 5), normal_sample(rng, 4), normal_sample(rng, 4))
        H_x = np.eye(5)
        H_y = np.eye(4)
        out = iterate_once(initial_state(P, w, params, H_x, H_y), keep_internals=True)
        it = out.internals
        Hcal_x = H_x + params.beta * P.AtA + params.ell * np.eye(5)
        resid = P.apply_A(w.x) - w.y
        gx = P.grad_f(w.x) - P.apply_At(w.lam - params.beta * resid)
        tol_x = 1e-12 * (1.0 + np.max(np.abs(gx)))
        assert np.max(np.abs(gx + Hcal_x @ (it["x_tilde"] - w.x))) <= tol_x
        assert it["model_residual_x"] <= tol_x

        # the y step runs at the accepted x and the half-step multiplier
        lam_half = it["lam_half"]
        x_next = out.state.w.x
        Hcal_y = H_y + (params.beta + params.sigma) * np.eye(4)
        gy = P.grad_g(w.y) + lam_half - params.beta * (P.apply_A(x_next) - w.y)
        tol_y = 1e-10 * (1.0 + np.max(np.abs(gy)))
        assert np.max(np.abs(gy + Hcal_y @ (it["y_tilde"] - w.y))) <= tol_y
        assert it["model_residual_y"] <= tol_y


# ----- acceleration ----------------------------------------------------------------


def test_hybrid_accelerate_identity_at_zero():
    d = hybrid_accelerate(np.array([2.0]), np.array([0.5]), 0.0)
    assert np.array_equal(d, [1.5])


def test_hybrid_accelerate_frozen_cases():
    assert np.array_equal(hybrid_accelerate(np.array([2.0]), np.array([0.0]), 1.0), [4.0])
    assert np.array_equal(hybrid_accelerate(np.array([2.0]), np.array([0.5]), 1.0), [3.0])
    assert np.array_equal(hybrid_accelerate(np.array([2.0]), np.array([0.0]), -0.5), [1.0])


def test_hybrid_accelerate_rejects_alpha_at_minus_one():
    with pytest.raises(ValueError):
        hybrid_accelerate(np.array([1.0]), np.array([0.0]), -1.0)


# ----- line search -------------------------------------------------------------------


def test_line_search_zero_direction_short_circuits():
    P = decoupled_problem(lambda x: 0.5 * x * x, lambda x: x, lambda x: 1.0)
    params = SolverParams(rho=0.4, nu=0.6)
    t, i = line_search(P, _w(2.0, 0.0, 0.0), np.zeros(1), 2.0 * np.eye(1), params, "x")
    assert (t, i) == (1.0, 0)


def test_line_search_accepts_unit_step_on_quadratic():
    P = decoupled_problem(lambda x: 0.5 * x * x, lambda x: x, lambda x: 1.0)
    params = SolverParams(rho=0.4, nu=0.6, beta=1.0, ell=1.0)
    w = _w(2.0, 0.0, 0.0)
    Hcal = np.array([[2.0]])  # H + ell, no coupling
    x_tilde = _internals(P, w, params)["x_tilde"]
    d = hybrid_accelerate(x_tilde, w.x, 0.0)
    assert np.allclose(d, [-1.0], atol=1e-14)
    t, i = line_search(P, w, d, Hcal, params, "x")
    assert (t, i) == (1.0, 0)


def test_line_search_backtracks_on_quartic():
    P = decoupled_problem(lambda x: x**4, lambda x: 4.0 * x**3, lambda x: 12.0 * x * x)
    params = SolverParams(rho=0.4, nu=0.6, beta=1.0, ell=1.0)
    w = _w(1.0, 0.0, 0.0)
    Hcal = np.array([[2.0]])
    d = np.array([-2.0])  # model step from H = 1: 1 - 4/2 = -1, direction -2
    t, i = line_search(P, w, d, Hcal, params, "x")
    assert i == 3
    assert abs(t - 0.6**3) <= 1e-15


def test_line_search_exhausts_budget():
    P = decoupled_problem(lambda x: x**4, lambda x: 4.0 * x**3, lambda x: 12.0 * x * x)
    params = SolverParams(rho=0.4, nu=0.6, max_backtracks=2)
    with pytest.raises(LineSearchFailed):
        line_search(P, _w(1.0, 0.0, 0.0), np.array([-2.0]), np.array([[2.0]]), params, "x")


def test_line_search_rejects_unknown_block():
    P = decoupled_problem(lambda x: 0.5 * x * x, lambda x: x, lambda x: 1.0)
    with pytest.raises(ValueError):
        line_search(P, _w(1.0, 0.0, 0.0), np.array([-1.0]), np.eye(1), SolverParams(), "z")


# ----- multiplier updates --------------------------------------------------------------


def test_dual_update_frozen_cases():
    lam = np.array([1.0])
    assert np.array_equal(dual_update(lam, 0.0, 2.0, np.array([3.0])), [1.0])
    assert np.array_equal(dual_update(lam, 0.5, 2.0, np.array([0.0])), [1.0])
    assert np.array_equal(dual_update(lam, 0.5, 2.0, np.array([3.0])), [-2.0])


def test_dual_update_dimension_check():
    with pytest.raises(DimensionMismatch):
        dual_update(np.zeros(2), 1.0, 1.0, np.zeros(3))


# ----- single iteration ------------------------------------------------------------------


def test_iterate_once_is_fixed_at_first_order_point():
    P = make_quadratic([1.0], [0.0], [[1.0]])
    x, y, lam = quadratic_kkt_point(P)
    state = initial_state(P, Iterate(x, y, lam), SolverParams(), np.eye(1), np.eye(1))
    out = iterate_once(state)
    assert np.max(np.abs(out.state.w.concat() - state.w.concat())) <= 1e-14
    assert out.record.norm_dx == 0.0 and out.record.norm_dy == 0.0
    assert out.record.feas_inf <= 1e-14


def test_iterate_once_decreases_merit_under_certified_margins():
    P = make_quadratic([1.0], [0.0], [[1.0]])
    params = suggest_params("alda", P)
    report = diagnostics_report(P, params)
    assert report.delta_x > 0 and report.delta_y > 0
    H_x, H_y = np.eye(1), np.eye(1)
    eta2_y = spectral_bounds(P, params, H_x, H_y).eta2_y
    state = initial_state(P, _w(2.0, -1.0, 0.5), params, H_x, H_y)
    assert state.eta_y + params.beta + params.sigma == eta2_y  # the bound of the record's L_hat
    before = eval_merit_hat(P, state, params, eta2_y)
    out = iterate_once(state)
    assert out.record.L_hat <= before


def test_iterate_once_smoke_on_classification():
    P = make_classification(20, 20, rng=make_rng(31))
    w0 = Iterate(np.zeros(20), np.zeros(19), np.zeros(19))
    params = SolverParams(r=0.1, s=1.0, alpha=0.0)
    out = iterate_once(initial_state(P, w0, params))
    assert np.all(np.isfinite(out.state.w.concat()))
    assert out.record.L_beta <= eval_alf(P, w0, params.beta)


def _concave_scalar():
    # concave f: H + beta A^T A + ell is indefinite until ell reaches 8 from 1
    return scalar_problem(
        lambda x: -2.5 * x * x,
        lambda x: -5.0 * x,
        lambda x: -5.0,
        lambda y: 0.5 * y * y,
        lambda y: y,
        lambda y: 1.0,
        a=1.0,
        lipschitz_f=5.0,
        lipschitz_g=1.0,
    )


def test_iterate_once_repairs_indefinite_metric():
    P = _concave_scalar()
    params = SolverParams(beta=1.0, ell=1.0, sigma=1.0)
    state = initial_state(P, _w(0.3, 0.0, 0.0), params, np.array([[-5.0]]), np.eye(1))
    # -5 + 1 + ell must exceed 0: 1 -> 2 -> 4 -> 8, in the state's params only
    assert state.params.ell == 8.0 and params.ell == 1.0
    out = iterate_once(state)
    assert out.state.params.ell == 8.0
    assert np.all(np.isfinite(out.state.w.concat()))


def test_iterate_once_direction_descent_identity():
    rng = make_rng(32)
    for alpha in (-0.5, 0.0, 1.0):
        P = random_quadratic(4, 3, rng)
        params = SolverParams(alpha=alpha)
        w = Iterate(normal_sample(rng, 4), normal_sample(rng, 3), normal_sample(rng, 3))
        out = iterate_once(initial_state(P, w, params, np.eye(4), np.eye(3)), keep_internals=True)
        it = out.internals
        scale = 1.0 / (1.0 + alpha)
        assert abs(it["gx_dot_dx"] + scale * it["quad_x"]) <= 1e-9 * max(1.0, abs(it["quad_x"]))
        assert abs(it["gy_dot_dy"] + scale * it["quad_y"]) <= 1e-9 * max(1.0, abs(it["quad_y"]))


# ----- full runs ----------------------------------------------------------------------------


def test_run_from_first_order_point_stops_immediately():
    P = make_quadratic([1.0], [0.0], [[1.0]])
    x, y, lam = quadratic_kkt_point(P)
    result = run(P, Iterate(x, y, lam), SolverParams())
    assert result.status is SolveStatus.CONVERGED
    assert result.iterations <= 1
    assert kkt_residual(P, result.final).total <= 1e-10


def test_run_converges_to_scalar_oracle_point():
    P = make_quadratic([1.0], [0.0], [[1.0]])
    params = SolverParams(
        rho=0.25, nu=0.5, alpha=0.0, beta=1.0, ell=1.0, sigma=1.0, r=0.1, s=1.0, tol_step=1e-6
    )
    result = run(P, Iterate(np.zeros(1), np.zeros(1), np.zeros(1)), params)
    assert result.status is SolveStatus.CONVERGED
    target = np.array([0.5, 0.5, -0.5])
    assert np.max(np.abs(result.final.concat() - target)) <= 1e-3


def test_run_trace_invariants():
    P = random_quadratic(5, 4, make_rng(33))
    result = run(P, Iterate(np.zeros(5), np.zeros(4), np.zeros(4)), SolverParams(tol_step=1e-6))
    assert result.status is SolveStatus.CONVERGED
    assert result.iterations == len(result.trace)
    for rec in result.trace:
        assert 0.0 < rec.t_x <= 1.0 and 0.0 < rec.t_y <= 1.0
        assert rec.backtracks_x <= 60 and rec.backtracks_y <= 60
        assert np.isfinite(rec.L_beta) and np.isfinite(rec.ofv)
    ks = [rec.k for rec in result.trace]
    assert ks == list(range(len(ks)))


def test_run_final_directions_vanish_on_convergence():
    P = random_quadratic(4, 4, make_rng(34))
    params = SolverParams(tol_step=1e-6)
    result = run(P, Iterate(np.zeros(4), np.zeros(4), np.zeros(4)), params)
    assert result.status is SolveStatus.CONVERGED
    last = result.trace[-1]
    scale = 1.0 + float(np.max(np.abs(result.final.concat())))
    assert max(last.norm_dx, last.norm_dy) <= 10.0 * params.tol_step * scale


def test_run_composite_residual_small_at_tight_tolerance():
    P = make_quadratic([1.0], [0.0], [[1.0]])
    result = run(P, Iterate(np.zeros(1), np.zeros(1), np.zeros(1)), SolverParams(tol_step=1e-6))
    assert kkt_residual(P, result.final).composite <= 1e-3


def test_run_small_step_alone_does_not_report_converged():
    P = random_quadratic(6, 4, make_rng(35))
    w0 = Iterate(np.zeros(6), np.zeros(4), np.zeros(4))
    # with the residual test switched off the loose step tolerance ends the
    # run at once, far from stationarity
    step_only = run(P, w0, SolverParams(tol_step=0.5, tol_kkt=float("inf")))
    res = kkt_residual(P, step_only.final)
    assert step_only.status is SolveStatus.CONVERGED and step_only.iterations == 1
    assert max(res.total, res.composite) > 1e-1

    tol_kkt = 1e-6
    params = SolverParams(tol_step=0.5, tol_kkt=tol_kkt)
    seen = []

    def record(out):
        assert out.kkt == kkt_residual(P, out.state.w)
        seen.append((out.state.w.concat(), max(out.kkt.total, out.kkt.composite)))

    result = run(P, w0, params, callback=record)
    assert result.status is SolveStatus.CONVERGED
    res = kkt_residual(P, result.final)
    assert max(res.total, res.composite) <= tol_kkt
    # each earlier iterate with a step below tol_step was passed over because
    # its residual was above tol_kkt
    prev = w0.concat()
    small_steps = 0
    for w, residual in seen[:-1]:
        if np.max(np.abs(w - prev)) / max(1.0, np.max(np.abs(prev))) <= params.tol_step:
            small_steps += 1
            assert residual > tol_kkt
        prev = w
    assert small_steps > 0


def test_run_never_reports_converged_on_a_nan_composite_residual(monkeypatch):
    P = make_quadratic([1.0], [0.0], [[1.0]])
    w0 = Iterate(np.zeros(1), np.zeros(1), np.zeros(1))
    params = SolverParams(tol_step=1e-6, max_iter=200)
    assert run(P, w0, params).status is SolveStatus.CONVERGED
    real = prsqp.solver.kkt_residual
    monkeypatch.setattr(
        prsqp.solver, "kkt_residual", lambda *args: replace(real(*args), composite=math.nan)
    )
    result = run(P, w0, params)
    assert result.status is SolveStatus.ITER_LIMIT
    assert result.iterations == params.max_iter


def test_run_converged_implies_first_order_residuals_within_tolerance():
    problems = [random_quadratic(5, 4, make_rng(36 + i)) for i in range(3)]
    problems.append(make_huber_lasso(16, 64, rng=make_rng(40)))
    converged = 0
    for P in problems:
        w0 = Iterate(np.zeros(P.n1), np.zeros(P.n2), np.zeros(P.n2))
        for r, s, alpha in ((0.1, 1.0, 0.0), (-0.1, 1.0, 0.5), (0.5, 0.5, -0.25)):
            for tol_step, tol_kkt in ((1e-1, 1e-3), (1e-4, 1e-2), (1e-8, 1e-6)):
                params = SolverParams(
                    r=r, s=s, alpha=alpha, tol_step=tol_step, tol_kkt=tol_kkt, max_iter=1000
                )
                result = run(P, w0, params)
                if result.status is not SolveStatus.CONVERGED:
                    continue
                converged += 1
                res = kkt_residual(P, result.final)
                assert res.total <= tol_kkt and res.composite <= tol_kkt
    assert converged >= 30


def test_run_validates_start_and_parameters():
    P = make_quadratic([1.0], [0.0], [[1.0]])
    with pytest.raises(TypeError):
        run(P, np.zeros(3), SolverParams())
    with pytest.raises(DimensionMismatch):
        run(P, Iterate(np.zeros(2), np.zeros(1), np.zeros(1)), SolverParams())
    w0 = Iterate(np.zeros(1), np.zeros(1), np.zeros(1))
    with pytest.raises(FrozenInstanceError):
        SolverParams().rho = 2.0
    # parameters are validated once, by SolverParams; any other object is refused unread
    bad = SimpleNamespace(**{**asdict(SolverParams()), "rho": 2.0})
    for start in (run, initial_state):
        with pytest.raises(TypeError, match="params must be a SolverParams"):
            start(P, w0, bad)


def test_run_does_not_mutate_caller_params():
    P = _concave_scalar()
    params = SolverParams(beta=1.0, ell=1.0, sigma=1.0, max_iter=3)
    run(P, Iterate(np.array([0.3]), np.zeros(1), np.zeros(1)), params)
    assert params.ell == 1.0 and params.sigma == 1.0


def test_run_tags_relaxed_acceleration_as_unsupported():
    P = make_quadratic([1.0], [0.0], [[1.0]])
    w0 = Iterate(np.zeros(1), np.zeros(1), np.zeros(1))
    assert run(P, w0, SolverParams(max_iter=3)).theory_supported
    relaxed = SolverParams(alpha=2.0, relaxed_alpha=True, max_iter=3)
    assert not run(P, w0, relaxed).theory_supported


def test_run_reports_line_search_breakdown_in_status():
    P = make_quadratic([1.0], [0.0], [[1.0]])
    w0 = Iterate(np.zeros(1), np.zeros(1), np.zeros(1))
    # far beyond the supported acceleration range the Armijo slope test is
    # unsatisfiable; a moderate backtrack budget keeps the step above the
    # float slack so the failure actually surfaces
    params = SolverParams(alpha=10.0, relaxed_alpha=True, rho=0.4, max_iter=50, max_backtracks=40)
    result = run(P, w0, params)
    assert result.status is SolveStatus.LINE_SEARCH_FAILED
    assert result.stop_reason.endswith("line search found no acceptable step within 40 backtracks")


def test_run_names_the_stop_rule_that_fired_or_the_breakdown():
    P = make_quadratic([1.0], [0.0], [[1.0]])
    w0 = _w(0.0, 0.0, 0.0)
    converged = run(P, w0, SolverParams(tol_step=1e-6))
    assert converged.status is SolveStatus.CONVERGED
    assert converged.stop_reason.startswith("tol_step and tol_kkt: relative step ")
    limited = run(P, w0, SolverParams(tol_step=0.0, max_iter=3))
    assert limited.status is SolveStatus.ITER_LIMIT
    assert limited.stop_reason == "max_iter: 3 iterations"
    nan_gradient = decoupled_problem(lambda x: x * x, lambda x: math.nan, lambda x: 2.0)
    broken = run(nan_gradient, w0, SolverParams())
    assert broken.status is SolveStatus.NUMERICAL_ERROR
    assert broken.stop_reason == "non-finite x-gradient"



# ----- factorizations carried across iterations ------------------------------------------


def _run_refactoring_every_step(P, w0, params):
    # reference for run(): the same loop over iterate_once, but each iteration
    # starts from a fresh initial_state at the iterate and the models of the
    # previous state, so every metric is built and factored afresh and every
    # value at the iterate is evaluated again; k, d_y_prev and eta_y are kept
    state = initial_state(P, w0, params)
    trace = []
    status = SolveStatus.ITER_LIMIT
    for k in range(params.max_iter):
        prev = state.w.concat()
        try:
            fresh = initial_state(P, state.w, state.params, state.metric_x.model, state.metric_y.model)
            out = iterate_once(fresh._replace(k=state.k, d_y_prev=state.d_y_prev, eta_y=state.eta_y))
        except LineSearchFailed:
            status = SolveStatus.LINE_SEARCH_FAILED
            break
        except (NumericalError, NotPositiveDefinite):
            status = SolveStatus.NUMERICAL_ERROR
            break
        state = out.state
        trace.append(out.record)
        step = float(np.max(np.abs(state.w.concat() - prev)))
        stationary = max(out.kkt.total, out.kkt.composite) <= params.tol_kkt
        if stationary and step / max(1.0, float(np.max(np.abs(prev)))) <= params.tol_step:
            status = SolveStatus.CONVERGED
            break
    return SolveResult(final=state.w, status=status, trace=trace)


def _assert_bit_identical(result, reference):
    rows = lambda res: [repr(astuple(rec)[:-1]) for rec in res.trace]  # all but elapsed
    assert rows(result) == rows(reference)
    assert result.status is reference.status
    assert result.final.concat().tobytes() == reference.final.concat().tobytes()


def _zero_start(P):
    return Iterate(np.zeros(P.n1), np.zeros(P.n2), np.zeros(P.n2))


def _double_well(c):
    # value, derivative and curvature of t^4 / 4 - c t^2 / 2 (concave for t^2 < c / 3)
    return (lambda t: t**4 / 4 - c * t * t / 2, lambda t: t**3 - c * t, lambda t: 3 * t * t - c)


def _wells(c_f, c_g):
    return scalar_problem(*_double_well(c_f), *_double_well(c_g), a=1.0, lipschitz_g=10.0)


def _repair_steps(P, w0, params):
    # iterations k after which ell / sigma had doubled; k = 0 counts a repair at w0
    ell, sigma = params.ell, params.sigma
    state = initial_state(P, w0, params)
    ell_k, sigma_k = [], []
    for k in range(params.max_iter):
        state = iterate_once(state).state
        ell_k += [k] if state.params.ell != ell else []
        sigma_k += [k] if state.params.sigma != sigma else []
        ell, sigma = state.params.ell, state.params.sigma
    return ell_k, sigma_k


def _mutating_hessians(P):
    # the same problem, but hess_f_at / hess_g_at overwrite and return one buffer each
    buf_x, buf_y = np.empty_like(P.hess_f_at(np.zeros(P.n1))), np.empty_like(P.hess_g_at(np.zeros(P.n2)))

    def hess_f_at(x):
        buf_x[...] = P.hess_f_at(x)
        return buf_x

    def hess_g_at(y):
        buf_y[...] = P.hess_g_at(y)
        return buf_y

    return replace(P, hess_f_at=hess_f_at, hess_g_at=hess_g_at)


def test_run_with_carried_factors_matches_refactoring_every_step():
    lasso = make_huber_lasso(16, 64, rng=make_rng(40))
    classification = make_classification(20, 20, rng=make_rng(31))
    for P, params in (
        (lasso, SolverParams(beta=10.0, alpha=0.5, relaxed_alpha=True, max_iter=300)),
        (classification, SolverParams(r=0.1, s=1.0, tol_step=0.0, max_iter=300)),
    ):
        w0 = _zero_start(P)
        _assert_bit_identical(run(P, w0, params), _run_refactoring_every_step(P, w0, params))


def test_run_with_carried_factors_matches_reference_through_metric_repairs():
    # a concave region of f (first case) or g (second case) is entered
    # mid-run, so ell or sigma doubles after iterations that reused a factor
    for P, w0, params, doubled in (
        (_wells(3.0, -1.0), _w(3.0, 0.0, 0.0), SolverParams(ell=0.01), 0),
        (_wells(-1.0, 3.0), _w(0.5, 3.0, 0.0), SolverParams(sigma=0.5), 1),
    ):
        params = replace(params, tol_step=0.0, tol_kkt=0.0, max_iter=60)
        repairs = _repair_steps(P, w0, params)
        assert repairs[doubled] and min(repairs[doubled]) > 0
        _assert_bit_identical(run(P, w0, params), _run_refactoring_every_step(P, w0, params))


def test_run_reports_the_weights_it_ended_with():
    # ell (first case) or sigma (second case) doubles mid-run on the wells; the
    # result holds the weights of the run's last state, which differ from the
    # caller's
    for P, w0, params in (
        (_wells(3.0, -1.0), _w(3.0, 0.0, 0.0), SolverParams(ell=0.01)),
        (_wells(-1.0, 3.0), _w(0.5, 3.0, 0.0), SolverParams(sigma=0.5)),
    ):
        params = replace(params, tol_step=0.0, tol_kkt=0.0, max_iter=60)
        state = initial_state(P, w0, params)
        for _ in range(params.max_iter):
            state = iterate_once(state).state
        result = run(P, w0, params)
        assert (result.ell, result.sigma) == (state.params.ell, state.params.sigma)
        assert (result.ell, result.sigma) != (params.ell, params.sigma)


def test_carried_factors_follow_hessians_that_reuse_their_buffer():
    classification = make_classification(20, 20, rng=make_rng(31))
    for P, w0, params in (
        (classification, _zero_start(classification), SolverParams(r=0.1, s=1.0, max_iter=100)),
        (_wells(3.0, -1.0), _w(3.0, 0.0, 0.0), SolverParams(ell=0.01, max_iter=60)),
        (_wells(-1.0, 3.0), _w(0.5, 3.0, 0.0), SolverParams(sigma=0.5, max_iter=60)),
    ):
        params = replace(params, tol_step=0.0, tol_kkt=0.0)
        reference = _run_refactoring_every_step(P, w0, params)
        _assert_bit_identical(run(_mutating_hessians(P), w0, params), reference)


def test_states_are_read_only_and_leave_the_callers_inputs_alone():
    P = _concave_scalar()
    params = SolverParams(beta=1.0, ell=1.0, sigma=1.0, max_iter=3, tol_step=0.0)
    w0 = _w(0.3, 0.0, 0.0)
    start = w0.concat()
    state = initial_state(P, w0, params)
    out = iterate_once(state)
    result = run(P, w0, params)
    # the repaired ell lives in the states and the result only
    assert state.params.ell == out.state.params.ell == result.ell == 8.0
    assert (params.ell, params.sigma) == (1.0, 1.0)
    assert w0.concat().tobytes() == start.tobytes()
    for a in (w0.x, w0.y, w0.lam):
        a[0] = a[0]  # the caller's arrays stay writable
    for s in (state, out.state):
        for a in (s.w.x, s.w.y, s.w.lam, s.d_y_prev):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
    for a in (result.final.x, result.final.y, result.final.lam):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


def _counting(P, monkeypatch):
    # calls to the instance's evaluations and products from here on
    names = ("apply_A", "apply_At", "eval_f", "grad_f", "eval_g", "grad_g", "hess_f_at", "hess_g_at")
    calls = dict.fromkeys(names, 0)
    for name in calls:
        fn = getattr(P, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(P, name, counted)
    return calls


def _evaluation_cases():
    # the instances of the carried-factor tests, and the wells on which ell or sigma doubles mid-run
    short = dict(tol_step=0.0, tol_kkt=0.0, max_iter=40)
    lasso = make_huber_lasso(16, 64, rng=make_rng(40))
    classification = make_classification(20, 20, rng=make_rng(31))
    yield lasso, _zero_start(lasso), SolverParams(beta=10.0, alpha=0.5, relaxed_alpha=True, **short)
    yield classification, _zero_start(classification), SolverParams(r=0.1, s=1.0, **short)
    yield _wells(3.0, -1.0), _w(3.0, 0.0, 0.0), SolverParams(ell=0.01, **short)
    yield _wells(-1.0, 3.0), _w(0.5, 3.0, 0.0), SolverParams(sigma=0.5, **short)


def test_run_evaluates_each_x_point_once(monkeypatch):
    # A x and f are evaluated at each x trial and at w0, grad f at w0 and at
    # each new iterate: every other use reads the point's record. f(w0) enters
    # only the first x search's L_beta(w0), which a zero direction skips (the
    # LASSO from zero, whose x-gradient vanishes there).
    for P, w0, params in list(_evaluation_cases())[:2]:
        calls = _counting(P, monkeypatch)
        result = run(P, w0, params)
        assert result.iterations == params.max_iter
        trials = sum(rec.backtracks_x + 1 for rec in result.trace)
        f_w0 = int(result.trace[0].norm_dx > 0.0)
        x_calls = {name: calls[name] for name in ("apply_A", "eval_f", "grad_f")}
        assert x_calls == dict(apply_A=trials + 1, eval_f=trials + f_w0, grad_f=result.iterations + 1)
        # A^T enters the x-gradient and the two first-order residuals
        assert calls["apply_At"] == 3 * result.iterations


def test_run_evaluates_each_y_point_once(monkeypatch):
    # g is evaluated at each y trial and at A x_{k+1} for the objective, and at
    # y0 when the first iteration moves; grad g at y0, at each new iterate and
    # at A x_{k+1} for the composite residual. Every other use reads the
    # point's record, so on the Huber-LASSO (the first case) grad g costs two
    # evaluations per iteration after the first.
    for P, w0, params in _evaluation_cases():
        calls = _counting(P, monkeypatch)
        result = run(P, w0, params)
        assert result.iterations == params.max_iter
        trials = sum(rec.backtracks_y + 1 for rec in result.trace)
        g_y0 = int(result.trace[0].norm_dx > 0.0 or result.trace[0].norm_dy > 0.0)
        assert calls["eval_g"] == trials + result.iterations + g_y0
        assert calls["grad_g"] == 2 * result.iterations + 1


def test_run_refreshes_each_hessian_once_per_iteration(monkeypatch):
    # both models are evaluated at w0 and once at each new iterate, whatever
    # their shape: the Huber-LASSO x-model is a diagonal, the classification
    # one a matrix
    for P, w0, params in _evaluation_cases():
        calls = _counting(P, monkeypatch)
        result = run(P, w0, params)
        assert result.iterations == params.max_iter
        assert calls["hess_f_at"] == calls["hess_g_at"] == result.iterations + 1


def test_trace_records_match_fresh_evaluations():
    for P, w0, params in _evaluation_cases():
        outcomes = []
        result = run(P, w0, params, callback=outcomes.append)
        assert len(outcomes) == result.iterations == params.max_iter
        for out in outcomes:
            w, rec = out.state.w, out.record
            kkt = kkt_residual(P, w)
            assert rec.L_beta == eval_alf(P, w, params.beta)
            assert rec.feas_inf == kkt.feas
            assert rec.kkt_inf == kkt.total and out.kkt == kkt
            assert rec.ofv == composite_objective(P, w.x)


def test_carried_factors_bound_factorizations_per_iteration(monkeypatch):
    calls = []
    factor = prsqp.solver.cholesky_spd
    monkeypatch.setattr(prsqp.solver, "cholesky_spd", lambda M: calls.append(1) or factor(M))
    per_iteration, models_y = [], []

    def record(out):
        per_iteration.append(len(calls) - sum(per_iteration))
        models_y.append(out.state.metric_y.model)

    # classification: H_y is constant and H_x changes every iteration
    P = make_classification(20, 20, rng=make_rng(31))
    params = SolverParams(r=0.1, s=1.0, tol_step=0.0, max_iter=200)
    result = run(P, _zero_start(P), params, callback=record)
    assert result.iterations == 200
    assert max(per_iteration[1:]) <= 1
    # the unchanged y-model stays one read-only array
    assert all(H is models_y[0] for H in models_y) and not models_y[0].flags.writeable

    # Huber-LASSO: H_x = diag(|x| < mu) changes in a minority of iterations
    calls.clear()
    P = make_huber_lasso(16, 64, rng=make_rng(40))
    result = run(P, _zero_start(P), SolverParams(tol_step=0.0, max_iter=200))
    assert result.iterations == 200
    assert len(calls) < result.iterations


# ----- structured x-metric (diagonal model, wide coupling) ----------------------------------


def _dense_twin(P):
    # the same problem with hess f given as a diagonal matrix, so the solver
    # forms and factors Hcal_x
    return replace(P, hess_f_at=lambda x: np.diag(P.hess_f_at(x)))


def _wide_wells(m, n, c, seed):
    # f = sum_i x_i^4 / 4 - c x_i^2 / 2, concave for x_i^2 < c / 3, on a random
    # m x n coupling with the quadratic g of random_quadratic
    P = random_quadratic(n, m, make_rng(seed))
    return replace(
        P,
        name="wells",
        eval_f=lambda x: float(np.sum(x**4 / 4 - c * x * x / 2)),
        grad_f=lambda x: x**3 - c * x,
        hess_f_at=lambda x: 3 * x * x - c,
        lipschitz_f=None,
    )


def _structured_cases():
    rng = make_rng(50)
    for i in range(3):
        P = make_huber_lasso(12, 40, rng=make_rng(51 + i))
        # iterates near the origin put some coordinates inside the Huber knee
        w = Iterate(0.1 * normal_sample(rng, 40), normal_sample(rng, 12), normal_sample(rng, 12))
        yield P, w, SolverParams(beta=10.0, alpha=0.5, relaxed_alpha=True)
        P = random_quadratic(30, 10, make_rng(54 + i))
        w = Iterate(normal_sample(rng, 30), normal_sample(rng, 10), normal_sample(rng, 10))
        yield P, w, SolverParams(beta=0.5 + i, ell=0.1)


def _close(a, b, tol=1e-10):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.max(np.abs(a - b), initial=0.0) <= tol * max(1.0, np.max(np.abs(b), initial=0.0))


def _assert_traces_close(result, reference):
    assert result.status is reference.status
    assert result.iterations == reference.iterations
    for rec, ref in zip(result.trace, reference.trace):
        assert (rec.k, rec.backtracks_x, rec.backtracks_y) == (ref.k, ref.backtracks_x, ref.backtracks_y)
        got, want = astuple(rec)[:-1], astuple(ref)[:-1]
        assert _close(np.nan_to_num(got), np.nan_to_num(want)), (rec, ref)
    assert _close(result.final.concat(), reference.final.concat())


def test_structured_x_step_matches_dense_metric():
    for P, w, params in _structured_cases():
        out, dense = (iterate_once(initial_state(Q, w, params), keep_internals=True) for Q in (P, _dense_twin(P)))
        it, dense_it = out.internals, dense.internals
        metric, dense_metric = out.state.metric_x, dense.state.metric_x
        assert isinstance(metric, prsqp.solver.LowRankMetric)
        assert isinstance(dense_metric, prsqp.solver.BlockMetric)
        assert np.array_equal(np.diag(metric.model), dense_metric.model)  # the refreshed model, as its diagonal
        assert _close(it["x_tilde"], dense_it["x_tilde"])
        assert _close(it["quad_x"], dense_it["quad_x"])
        assert it["model_residual_x"] <= 1e-10 * (1.0 + np.max(np.abs(it["gx"])))
        # the next state's metrics at the refreshed model agree as operators
        for d in (it["d_x"], normal_sample(make_rng(55), P.n1)):
            assert _close(metric.quad(d), dense_metric.quad(d))
            assert _close(metric.matvec(d), dense_metric.matvec(d))
            assert _close(metric.solve(d), dense_metric.solve(d))


def test_structured_run_matches_dense_run():
    for P, w, params in _structured_cases():
        params = replace(params, tol_step=0.0, max_iter=150)
        _assert_traces_close(run(P, w, params), run(_dense_twin(P), w, params))


def test_structured_metric_doubles_ell_where_the_dense_metric_does():
    # a concave well puts negative entries on the diagonal model; ell starts
    # too small, so the dense metric is indefinite at the start or later in the
    # run, and it doubles at the same iterations on both paths. (The wells'
    # iteration can also amplify the rounding difference of the first steps:
    # from 1e-15 to 1e-9 within 30 iterations for _wide_wells(4, 10, 1.0, 1) from
    # x0 = 3, with dense metrics on both sides after k = 1. These cases do not.)
    cases = (
        (_wide_wells(4, 10, 1.0, 1), 2.0, [1, 31]),
        (_wide_wells(4, 10, 1.0, 2), 3.0, [3]),
        (_wide_wells(4, 10, 3.0, 0), 0.1, [0]),
    )
    for P, x0, doubled in cases:
        w0 = _w(x0 * np.sign(np.arange(10) - 4.5), np.zeros(4), np.zeros(4))
        params = SolverParams(ell=0.01, tol_step=0.0, tol_kkt=0.0, max_iter=80)
        repairs = _repair_steps(P, w0, params)
        assert repairs[0] == doubled and repairs == _repair_steps(_dense_twin(P), w0, params)
        structured = []
        record = lambda out: structured.append(isinstance(out.state.metric_x, prsqp.solver.LowRankMetric))
        result = run(P, w0, params, callback=record)
        assert any(structured)
        _assert_traces_close(result, run(_dense_twin(P), w0, params))


def test_structured_metric_factors_only_capacitance_matrices(monkeypatch):
    shapes = []
    factor = prsqp.solver.cholesky_spd
    monkeypatch.setattr(prsqp.solver, "cholesky_spd", lambda M: shapes.append(M.shape) or factor(M))
    for P in (make_huber_lasso(16, 64, rng=make_rng(56)), random_quadratic(30, 10, make_rng(57))):
        shapes.clear()
        result = run(P, _zero_start(P), SolverParams(tol_step=0.0, max_iter=100))
        assert result.iterations == 100
        assert shapes and set(shapes) == {(P.n2, P.n2)}  # the y-metric is n2 x n2 too
        shapes.clear()
        run(_dense_twin(P), _zero_start(P), SolverParams(tol_step=0.0, max_iter=100))
        assert (P.n1, P.n1) in shapes
    # the shape of H_x, not its entries, picks the metric: a diagonal H_x
    # given as a matrix is factored densely, and the refresh from the problem's
    # own (64,) model is structured again
    P = make_huber_lasso(16, 64, rng=make_rng(56))
    rng = make_rng(58)
    w = Iterate(0.1 * normal_sample(rng, 64), normal_sample(rng, 16), normal_sample(rng, 16))
    h, H_y = hessian_pair(P, w.x, w.y)
    outcomes = []
    for H_x, factored in ((h, {(16, 16)}), (np.diag(h), {(64, 64), (16, 16)})):
        shapes.clear()
        outcomes.append(iterate_once(initial_state(P, w, SolverParams(), H_x, H_y), keep_internals=True))
        assert set(shapes) == factored
    diagonal, matrix = outcomes
    assert isinstance(matrix.state.metric_x, prsqp.solver.LowRankMetric)
    assert matrix.state.metric_x.model.shape == diagonal.state.metric_x.model.shape == (64,)
    assert _close(matrix.internals["x_tilde"], diagonal.internals["x_tilde"])
    assert _close(matrix.state.w.concat(), diagonal.state.w.concat())
    # where D = h + ell is not positive the dense metric is factored instead
    P = _wide_wells(4, 10, 3.0, 0)
    shapes.clear()
    run(P, _zero_start(P), SolverParams(ell=0.01, max_iter=5))
    assert (10, 10) in shapes


# ----- diagonal y-metric and capacitance assembly ------------------------------------------


def test_diagonal_y_metric_matches_the_dense_metric_of_its_diagonal():
    rng = make_rng(61)
    params = SolverParams(beta=2.0, sigma=3.0)
    for n in (1, 7, 128):
        P = random_quadratic(n + 1, n, rng)
        h = normal_sample(rng, n)  # D = h + 5 > 0 here
        diagonal = prsqp.solver._metric_y(P, h, params.sigma, params.beta)
        dense = prsqp.solver._metric_y(P, np.diag(h), params.sigma, params.beta)
        assert isinstance(diagonal, prsqp.solver.DiagonalMetric)
        assert isinstance(dense, prsqp.solver.BlockMetric)
        for v in (normal_sample(rng, n), 1e-3 * normal_sample(rng, n)):
            assert _close(diagonal.solve(v), dense.solve(v), 1e-14)
            assert _close(diagonal.matvec(v), dense.matvec(v), 1e-14)
            assert _close(diagonal.quad(v), dense.quad(v), 1e-14)


def _separable_g(c):
    # f = ||x||^2 / 2 and g = sum_i c_i y_i^2 / 2 on A = I: H_y = diag(c), given as c
    n = len(c)
    c = np.asarray(c, dtype=float)
    return CompositeProblem(
        name="separable",
        A=np.eye(n),
        eval_f=lambda x: 0.5 * float(x @ x),
        grad_f=lambda x: x.copy(),
        hess_f_at=lambda x: np.eye(n),
        eval_g=lambda y: 0.5 * float(y @ (c * y)),
        grad_g=lambda y: c * y,
        hess_g_at=lambda y: c,
    )


def test_diagonal_y_metric_doubles_sigma_until_its_diagonal_is_positive():
    # min(h) + beta + sigma with beta = 1, sigma = 0.5: the concave coordinate
    # -4 needs sigma = 4 (1 + 4 - 4 > 0); at -3, sigma = 2 makes it exactly 0,
    # which a Cholesky factorization rejects too, so sigma = 4 again
    for c_min, sigma in ((-4.0, 4.0), (-3.0, 4.0), (-1.0, 0.5)):
        P = _separable_g([1.0, c_min, 0.25])
        params = SolverParams(beta=1.0, sigma=0.5)
        out = iterate_once(initial_state(P, _w(np.ones(3), np.ones(3), np.zeros(3)), params))
        assert out.state.params.sigma == sigma and params.sigma == 0.5
        assert isinstance(out.state.metric_y, prsqp.solver.DiagonalMetric)
        assert np.array_equal(out.state.metric_y.model, [1.0, c_min, 0.25])


def test_diagonal_y_model_given_as_a_matrix_takes_the_dense_metric():
    # the same g with H_y = diag(c) as a matrix: a factored BlockMetric instead
    # of a DiagonalMetric, the same sigma doublings and the same iterates
    for c_min, sigma in ((-4.0, 4.0), (-3.0, 4.0), (-1.0, 0.5)):
        P = _separable_g([1.0, c_min, 0.25])
        dense = replace(P, hess_g_at=lambda y: np.diag(P.hess_g_at(y)))
        w0 = _w(np.ones(3), np.ones(3), np.zeros(3))
        params = SolverParams(beta=1.0, sigma=0.5, tol_step=0.0, max_iter=40)
        results, kinds = [], []
        for Q in (P, dense):
            seen = []
            results.append(run(Q, w0, params, callback=lambda out: seen.append(type(out.state.metric_y))))
            kinds.append(set(seen))
        assert kinds == [{prsqp.solver.DiagonalMetric}, {prsqp.solver.BlockMetric}]
        diagonal, matrix = results
        assert diagonal.sigma == matrix.sigma == sigma
        _assert_traces_close(matrix, diagonal)


def test_capacitance_matrix_depends_on_the_model_alone():
    # support changes of the Huber model, on both sides of the n/2 switch
    # between the base-plus-correction and the direct assembly, and changes of
    # ell and beta: the metric built from the previous one is bit-equal to a
    # fresh one, and solves as the dense x-metric does
    P = make_huber_lasso(16, 64, rng=make_rng(59))
    rng = make_rng(60)
    knee = P.data.tau / P.data.mu
    cached = None
    steps = [(3, 5.0, 10.0), (5, 5.0, 10.0), (0, 5.0, 10.0), (31, 5.0, 10.0), (32, 5.0, 10.0)]
    steps += [(64, 5.0, 10.0), (10, 5.0, 10.0), (12, 10.0, 10.0), (12, 10.0, 1.0), (9, 10.0, 1.0)]
    for size, ell, beta in steps:
        h = np.zeros(64)
        h[rng.choice(64, size, replace=False)] = knee
        h.flags.writeable = False
        metric = prsqp.solver._metric_x(P, h, ell, beta, cached)
        fresh = prsqp.solver._metric_x(P, h, ell, beta)
        assert isinstance(metric, prsqp.solver.LowRankMetric)
        assert (metric.base is None) == (2 * size >= 64)
        if metric.base is not None and cached is not None and cached.base is not None:
            # the base is carried at the same ell and beta, and rebuilt otherwise
            assert (metric.base is cached.base) == ((cached.weight, cached.beta) == (ell, beta))
        Hcal = np.diag(h + ell) + beta * (P.A.T @ P.A)
        for g in (normal_sample(rng, 64), 1e3 * normal_sample(rng, 64)):
            assert metric.solve(g).tobytes() == fresh.solve(g).tobytes()
            assert _close(metric.solve(g), np.linalg.solve(Hcal, g), 1e-10)
        cached = metric


def test_constant_diagonal_y_model_is_never_factored(monkeypatch):
    shapes = []
    factor = prsqp.solver.cholesky_spd
    monkeypatch.setattr(prsqp.solver, "cholesky_spd", lambda M: shapes.append(M.shape) or factor(M))
    P = make_classification(20, 20, rng=make_rng(31))
    outcomes = []
    params = SolverParams(r=0.1, s=1.0, tol_step=0.0, max_iter=100)
    result = run(P, _zero_start(P), params, callback=outcomes.append)
    assert result.iterations == 100
    assert shapes and set(shapes) == {(P.n1, P.n1)}  # x-metrics only
    models = [out.state.metric_y.model for out in outcomes]
    assert all(isinstance(out.state.metric_y, prsqp.solver.DiagonalMetric) for out in outcomes)
    assert all(h is models[0] for h in models)
    assert np.array_equal(models[0], np.full(P.n2, P.data.mu))


def test_constant_y_model_is_measured_once(monkeypatch):
    # ||H_y|| enters the merit column's curvature bound; an unchanged model
    # keeps its array, so its norm is not estimated again
    calls = []
    norm = prsqp.solver.spectral_norm
    monkeypatch.setattr(prsqp.solver, "spectral_norm", lambda M: calls.append(M.shape) or norm(M))
    for P in (make_classification(20, 20, rng=make_rng(31)), make_huber_lasso(16, 64, rng=make_rng(40))):
        calls.clear()
        result = run(P, _zero_start(P), SolverParams(tol_step=0.0, max_iter=50))
        assert result.iterations == 50
        assert calls == [(P.n2,)]


def test_structured_solve_never_forms_AtA():
    P = make_huber_lasso(16, 64, rng=make_rng(62))
    run(P, _zero_start(P), SolverParams(tol_step=0.0, max_iter=30))
    assert "AtA" not in vars(P)  # formed on first read only
    assert P.AtA.tobytes() == (P.A.T @ P.A).tobytes() and P.AtA is P.AtA


def test_y_curvature_is_read_off_a_diagonal_model(monkeypatch):
    problems = [
        random_quadratic(5, 3, make_rng(95)),
        make_classification(6, 9, rng=make_rng(96)),
        make_huber_lasso(8, 16, rng=make_rng(97)),
    ]
    models = [P.hess_g_at(np.zeros(P.n2)) for P in problems]
    assert [h.shape for h in models] == [(P.n2,) for P in problems]  # every family gives H_y as its diagonal
    models.append(np.array([3.0, -0.5, 1e-3, 2.25, -7.125, 0.1]))  # distinct entries, largest |.| negative
    for h in models:
        assert repr(spectral_norm(h)) == repr(spectral_norm(np.diag(h)))
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: calls.append(M.shape) or eigvalsh(M))
    for P in problems:
        result = run(P, _w(np.zeros(P.n1), np.zeros(P.n2), np.zeros(P.n2)), SolverParams(max_iter=5))
        assert result.iterations >= 1
    assert calls == []  # a diagonal H_y, and the spectra of A^T A, need no eigendecomposition
