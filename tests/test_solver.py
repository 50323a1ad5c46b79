import math
from dataclasses import astuple, replace

import numpy as np
import pytest

import prsqp.solver
from prsqp import (
    AugmentedIterate,
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


def _aug(w):
    return AugmentedIterate(w=w, d_y_prev=np.zeros(w.y.shape[0]))


# ----- parameter validation -----------------------------------------------------


def test_validate_params_flags_fast_acceleration():
    out = validate_params(dict(rho=0.4, alpha=2.0), relaxed=False)
    assert len(out) == 1 and "alpha" in out[0]
    assert validate_params(dict(rho=0.4, alpha=2.0), relaxed=True) == []


def test_validate_params_flags_cancelling_dual_steps():
    out = validate_params(dict(r=1.0, s=-1.0))
    assert len(out) == 1 and "r + s" in out[0]


def test_validate_params_accepts_reference_defaults():
    ok = dict(rho=0.4, nu=0.6, beta=1.0, ell=5.0, sigma=10.0, r=0.1, s=1.0, alpha=0.0)
    assert validate_params(ok) == []


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


def test_validate_params_rejects_negative_or_nan_kkt_tolerance():
    for bad in (-1.0, float("nan")):
        out = validate_params(dict(tol_kkt=bad))
        assert len(out) == 1 and "tol_kkt" in out[0]
        with pytest.raises(ValueError, match="tol_kkt"):
            SolverParams(tol_kkt=bad)
    assert validate_params(dict(tol_kkt=0.0)) == []
    assert validate_params(dict(tol_kkt=float("inf"))) == []


def test_validate_params_rejects_non_finite_weights():
    P = make_quadratic([1.0, 2.0], [0.0], [[1.0, 1.0]])
    w0 = _w(np.zeros(2), 0.0, 0.0)
    for name in ("beta", "ell", "sigma", "alpha", "r", "s"):
        for bad in (float("inf"), float("nan")):
            out = validate_params({name: bad}, relaxed=True)
            assert len(out) == 1 and name in out[0]
            with pytest.raises(ValueError, match=name):
                SolverParams(**{name: bad})
            params = SolverParams()
            setattr(params, name, bad)
            with pytest.raises(ValueError, match=name):
                run(P, w0, params)


def test_validate_params_requires_integer_loop_limits():
    P = make_quadratic([1.0, 2.0], [0.0], [[1.0, 1.0]])
    w0 = _w(np.zeros(2), 0.0, 0.0)
    for name in ("max_iter", "max_backtracks"):
        for bad in (20.5, 2.0, True, False, "3"):
            out = validate_params({name: bad})
            assert out == [f"{name} must be an integer, got {bad!r}"]
            with pytest.raises(ValueError, match=name):
                SolverParams(**{name: bad})
        assert validate_params({name: 0}) == [f"{name} must be >= 1, got 0"]
        assert validate_params({name: np.int64(3)}) == []
        params = SolverParams()
        setattr(params, name, 2.5)
        with pytest.raises(ValueError, match=name):
            run(P, w0, params)
    result = run(P, w0, SolverParams(max_iter=np.int64(3), max_backtracks=np.int32(5), tol_step=0.0))
    assert result.iterations == 3


# ----- model subproblems ----------------------------------------------------------


def _half_square_problem():
    # f = x^2/2, g = y^2/2, A = 1
    return make_quadratic([0.0], [0.0], [[1.0]])


def _internals(P, w, params, H_x=None, H_y=None):
    # the per-block internals of one iteration from w, at the models given or at w's
    if H_x is None:
        H_x, H_y = hessian_pair(P, w.x, w.y)
    return iterate_once(P, _aug(w), H_x, H_y, params, keep_internals=True).internals


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
        out = iterate_once(P, _aug(w), H_x, H_y, params, keep_internals=True)
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
    state = _aug(Iterate(x, y, lam))
    params = SolverParams()
    out = iterate_once(P, state, np.eye(1), np.eye(1), params)
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
    state = _aug(_w(2.0, -1.0, 0.5))
    before = eval_merit_hat(P, state, params, eta2_y)
    out = iterate_once(P, state, H_x, H_y, params, eta2_y=eta2_y)
    assert out.record.L_hat <= before


def test_iterate_once_smoke_on_classification():
    P = make_classification(20, 20, rng=make_rng(31))
    w0 = Iterate(np.zeros(20), np.zeros(19), np.zeros(19))
    params = SolverParams(r=0.1, s=1.0, alpha=0.0)
    state = _aug(w0)
    out = iterate_once(P, state, *hessian_pair(P, w0.x, w0.y), params)
    assert np.all(np.isfinite(out.state.w.concat()))
    assert out.record.L_beta <= eval_alf(P, w0, params.beta)


def test_iterate_once_repairs_indefinite_metric():
    # concave f makes H + beta A^T A + ell indefinite until ell doubles high enough
    P = scalar_problem(
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
    params = SolverParams(beta=1.0, ell=1.0, sigma=1.0)
    state = _aug(_w(0.3, 0.0, 0.0))
    out = iterate_once(P, state, np.array([[-5.0]]), np.eye(1), params)
    # -5 + 1 + ell must exceed 0: 1 -> 2 -> 4 -> 8
    assert params.ell == 8.0
    assert np.all(np.isfinite(out.state.w.concat()))


def test_iterate_once_direction_descent_identity():
    rng = make_rng(32)
    for alpha in (-0.5, 0.0, 1.0):
        P = random_quadratic(4, 3, rng)
        params = SolverParams(alpha=alpha)
        state = _aug(Iterate(normal_sample(rng, 4), normal_sample(rng, 3), normal_sample(rng, 3)))
        out = iterate_once(P, state, np.eye(4), np.eye(3), params, keep_internals=True)
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
    bad = SolverParams()
    bad.rho = 2.0
    with pytest.raises(ValueError):
        run(P, Iterate(np.zeros(1), np.zeros(1), np.zeros(1)), bad)


def test_run_does_not_mutate_caller_params():
    P = scalar_problem(
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
    # reference for run(): the same loop over iterate_once, but passing no carry,
    # so every metric is built and factored afresh, and ||H_y|| is estimated
    # at every iteration
    params = replace(params)
    state = AugmentedIterate(w=w0, d_y_prev=np.zeros(P.n2))
    H_x, H_y = hessian_pair(P, w0.x, w0.y)
    eta_y = spectral_norm(H_y)
    trace = []
    status = SolveStatus.ITER_LIMIT
    for k in range(params.max_iter):
        prev = state.w.concat()
        try:
            eta2_y = eta_y + params.beta + params.sigma
            out = iterate_once(P, state, H_x, H_y, params, k=k, eta2_y=eta2_y)
        except LineSearchFailed:
            status = SolveStatus.LINE_SEARCH_FAILED
            break
        except (NumericalError, NotPositiveDefinite):
            status = SolveStatus.NUMERICAL_ERROR
            break
        state, H_x, H_y = out.state, out.hess_x, out.hess_y
        eta_y = max(eta_y, spectral_norm(H_y))
        trace.append(out.record)
        step = float(np.max(np.abs(state.w.concat() - prev)))
        stationary = max(out.kkt.total, out.kkt.composite) <= params.tol_kkt
        if stationary and step / max(1.0, float(np.max(np.abs(prev)))) <= params.tol_step:
            status = SolveStatus.CONVERGED
            break
    return SolveResult(final=state.w, status=status, trace=trace, iterations=len(trace))


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
    # iterations of the reference loop after which ell / sigma had doubled
    ref = replace(params)
    state = AugmentedIterate(w=w0, d_y_prev=np.zeros(P.n2))
    H_x, H_y = hessian_pair(P, w0.x, w0.y)
    ell_k, sigma_k = [], []
    for k in range(params.max_iter):
        ell, sigma = ref.ell, ref.sigma
        out = iterate_once(P, state, H_x, H_y, ref, k=k)
        state, H_x, H_y = out.state, out.hess_x, out.hess_y
        ell_k += [k] if ref.ell != ell else []
        sigma_k += [k] if ref.sigma != sigma else []
    return ell_k, sigma_k


def _mutating_hessians(P):
    # the same problem, but hess_f_at / hess_g_at overwrite and return one buffer each
    buf_x, buf_y = np.empty((P.n1, P.n1)), np.empty((P.n2, P.n2))

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
    # result holds the weights that iterate_once left in run's private params,
    # which differ from the caller's
    for P, w0, params in (
        (_wells(3.0, -1.0), _w(3.0, 0.0, 0.0), SolverParams(ell=0.01)),
        (_wells(-1.0, 3.0), _w(0.5, 3.0, 0.0), SolverParams(sigma=0.5)),
    ):
        params = replace(params, tol_step=0.0, tol_kkt=0.0, max_iter=60)
        replayed = replace(params)
        state, (H_x, H_y) = _aug(w0), hessian_pair(P, w0.x, w0.y)
        for k in range(params.max_iter):
            out = iterate_once(P, state, H_x, H_y, replayed, k=k)
            state, H_x, H_y = out.state, out.hess_x, out.hess_y
        result = run(P, w0, params)
        assert (result.ell, result.sigma) == (replayed.ell, replayed.sigma)
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


def test_carry_is_used_only_with_the_inputs_it_was_built_from():
    P = make_classification(20, 20, rng=make_rng(31))
    other = make_classification(20, 20, rng=make_rng(32))  # same A, H_y and sizes
    params = SolverParams(r=0.1, s=1.0)
    w0 = _zero_start(P)
    first = iterate_once(P, _aug(w0), *hessian_pair(P, w0.x, w0.y), params)
    w1 = first.state.w
    # L_beta at w1 is far below its value here, so reusing it would change the x line search
    zigzag = 0.5 * (-1.0) ** np.arange(P.n1)
    moved = AugmentedIterate(Iterate(w1.x + zigzag, w1.y, w1.lam), first.state.d_y_prev)
    # the carry's x record holds the outcome's own x array, here written in place
    written = iterate_once(P, _aug(w0), *hessian_pair(P, w0.x, w0.y), params)
    written.state.w.x[:] += zigzag
    # and its y record the outcome's own y array, whose g and grad g it keeps
    written_y = iterate_once(P, _aug(w0), *hessian_pair(P, w0.x, w0.y), params)
    written_y.state.w.y[:] += zigzag[: P.n2]
    # f, A, g and the Hessians as on P: only grad f, so only the carried x record, differs
    steeper = replace(P, grad_f=lambda x: 2.0 * P.grad_f(x))
    for Q, state, changed, carry in (
        (P, first.state, replace(params, ell=2.0 * params.ell), first.carry),
        (P, first.state, replace(params, sigma=2.0 * params.sigma), first.carry),
        (P, first.state, replace(params, beta=2.0 * params.beta), first.carry),
        (other, first.state, params, first.carry),
        (P, moved, params, first.carry),
        (P, written.state, params, written.carry),
        (P, written_y.state, params, written_y.carry),
        (steeper, first.state, params, first.carry),
    ):
        H_x, H_y = hessian_pair(Q, state.w.x, state.w.y)
        fresh = iterate_once(Q, state, H_x, H_y, replace(changed))
        carried = iterate_once(Q, state, H_x, H_y, replace(changed), carry=carry)
        assert repr(astuple(carried.record)[:-1]) == repr(astuple(fresh.record)[:-1])
        assert carried.state.w.concat().tobytes() == fresh.state.w.concat().tobytes()


def _counting(P, monkeypatch):
    # calls to the instance's evaluations and products from here on
    calls = dict.fromkeys(("apply_A", "apply_At", "eval_f", "grad_f", "eval_g", "grad_g"), 0)
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
        models_y.append(out.hess_y)

    # classification: H_y is constant and H_x changes every iteration
    P = make_classification(20, 20, rng=make_rng(31))
    params = SolverParams(r=0.1, s=1.0, tol_step=0.0, max_iter=200)
    result = run(P, _zero_start(P), params, callback=record)
    assert result.iterations == 200
    assert max(per_iteration[1:]) <= 1
    # the unchanged y-model comes back as one read-only array
    assert all(H is models_y[0] for H in models_y) and not models_y[0].flags.writeable

    # Huber-LASSO: H_x = diag(|x| < mu) changes in a minority of iterations
    calls.clear()
    P = make_huber_lasso(16, 64, rng=make_rng(40))
    result = run(P, _zero_start(P), SolverParams(tol_step=0.0, max_iter=200))
    assert result.iterations == 200
    assert len(calls) < result.iterations


# ----- structured x-metric (diagonal model, wide coupling) ----------------------------------


def _dense_twin(P):
    # the same problem without hess_f_diag, so the solver forms and factors Hcal_x
    return replace(P, hess_f_diag=None)


def _wide_wells(m, n, c, seed):
    # f = sum_i x_i^4 / 4 - c x_i^2 / 2, concave for x_i^2 < c / 3, on a random
    # m x n coupling with the quadratic g of random_quadratic
    P = random_quadratic(n, m, make_rng(seed))
    return replace(
        P,
        name="wells",
        eval_f=lambda x: float(np.sum(x**4 / 4 - c * x * x / 2)),
        grad_f=lambda x: x**3 - c * x,
        hess_f_at=lambda x: np.diag(3 * x * x - c),
        hess_f_diag=lambda x: 3 * x * x - c,
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
        H_x, H_y = hessian_pair(P, w.x, w.y)
        out, dense = (
            iterate_once(Q, _aug(w), H_x, H_y, replace(params), keep_internals=True)
            for Q in (P, _dense_twin(P))
        )
        it, dense_it = out.internals, dense.internals
        metric, dense_metric = out.carry.metric_x, dense.carry.metric_x
        assert isinstance(metric, prsqp.solver.LowRankMetric)
        assert isinstance(dense_metric, prsqp.solver.BlockMetric)
        assert np.array_equal(np.diag(out.hess_x), dense.hess_x)  # the refreshed model, as its diagonal
        assert _close(it["x_tilde"], dense_it["x_tilde"])
        assert _close(it["quad_x"], dense_it["quad_x"])
        assert it["model_residual_x"] <= 1e-10 * (1.0 + np.max(np.abs(it["gx"])))
        # the carried metrics at the refreshed model agree as operators
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
        record = lambda out: structured.append(isinstance(out.carry.metric_x, prsqp.solver.LowRankMetric))
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
    # a diagonal H_x given as a matrix is taken as its diagonal
    P = make_huber_lasso(16, 64, rng=make_rng(56))
    rng = make_rng(58)
    w = Iterate(0.1 * normal_sample(rng, 64), normal_sample(rng, 16), normal_sample(rng, 16))
    outcomes = []
    for diagonal_x in (False, True):
        shapes.clear()
        H_x, H_y = hessian_pair(P, w.x, w.y, diagonal_x)
        outcomes.append(iterate_once(P, _aug(w), H_x, H_y, SolverParams()))
        assert shapes and set(shapes) == {(16, 16)}
    matrix, diagonal = outcomes
    assert repr(astuple(matrix.record)[:-1]) == repr(astuple(diagonal.record)[:-1])
    assert matrix.state.w.concat().tobytes() == diagonal.state.w.concat().tobytes()
    assert matrix.hess_x.shape == diagonal.hess_x.shape == (64,)
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
        diagonal = prsqp.solver._metric_y(P, h, params)
        dense = prsqp.solver._metric_y(P, np.diag(h), params)
        assert isinstance(diagonal, prsqp.solver.DiagonalMetric)
        assert isinstance(dense, prsqp.solver.BlockMetric)
        for v in (normal_sample(rng, n), 1e-3 * normal_sample(rng, n)):
            assert _close(diagonal.solve(v), dense.solve(v), 1e-14)
            assert _close(diagonal.matvec(v), dense.matvec(v), 1e-14)
            assert _close(diagonal.quad(v), dense.quad(v), 1e-14)


def _separable_g(c):
    # f = ||x||^2 / 2 and g = sum_i c_i y_i^2 / 2 on A = I: H_y = diag(c)
    n = len(c)
    c = np.asarray(c, dtype=float)
    return CompositeProblem(
        name="separable",
        n1=n,
        n2=n,
        A=np.eye(n),
        eval_f=lambda x: 0.5 * float(x @ x),
        grad_f=lambda x: x.copy(),
        hess_f_at=lambda x: np.eye(n),
        eval_g=lambda y: 0.5 * float(y @ (c * y)),
        grad_g=lambda y: c * y,
        hess_g_at=lambda y: np.diag(c),
    )


def test_diagonal_y_metric_doubles_sigma_until_its_diagonal_is_positive():
    # min(h) + beta + sigma with beta = 1, sigma = 0.5: the concave coordinate
    # -4 needs sigma = 4 (1 + 4 - 4 > 0); at -3, sigma = 2 makes it exactly 0,
    # which a Cholesky factorization rejects too, so sigma = 4 again
    for c_min, sigma in ((-4.0, 4.0), (-3.0, 4.0), (-1.0, 0.5)):
        P = _separable_g([1.0, c_min, 0.25])
        params = SolverParams(beta=1.0, sigma=0.5)
        w = _w(np.ones(3), np.ones(3), np.zeros(3))
        out = iterate_once(P, _aug(w), *hessian_pair(P, w.x, w.y), params)
        assert params.sigma == sigma
        assert isinstance(out.carry.metric_y, prsqp.solver.DiagonalMetric)
        assert np.array_equal(out.hess_y, [1.0, c_min, 0.25])


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
        params = SolverParams(ell=ell, beta=beta)
        metric = prsqp.solver._metric_x(P, h, params, cached)
        fresh = prsqp.solver._metric_x(P, h, params)
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
    assert all(isinstance(out.carry.metric_y, prsqp.solver.DiagonalMetric) for out in outcomes)
    assert all(out.hess_y is outcomes[0].hess_y for out in outcomes)
    assert np.array_equal(outcomes[0].hess_y, np.full(P.n2, P.data.mu))


def test_structured_solve_never_forms_AtA():
    P = make_huber_lasso(16, 64, rng=make_rng(62))
    run(P, _zero_start(P), SolverParams(tol_step=0.0, max_iter=30))
    assert P._AtA is None  # formed on first read only
    assert P.AtA.tobytes() == (P.A.T @ P.A).tobytes() and P.AtA is P.AtA


def test_y_curvature_is_read_off_a_diagonal_model(monkeypatch):
    problems = [
        random_quadratic(5, 3, make_rng(95)),
        make_classification(6, 9, rng=make_rng(96)),
        make_huber_lasso(8, 16, rng=make_rng(97)),
    ]
    models = [P.hess_g_at(np.zeros(P.n2)) for P in problems]
    models.append(np.diag([3.0, -0.5, 1e-3, 2.25, -7.125, 0.1]))  # distinct entries, largest |.| negative
    for H in models:
        h = prsqp.solver._own(H, None, diagonal=True)
        assert h.shape == (H.shape[0],)
        assert repr(spectral_norm(h)) == repr(spectral_norm(H))
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: calls.append(M.shape) or eigvalsh(M))
    for P in problems:
        result = run(P, _w(np.zeros(P.n1), np.zeros(P.n2), np.zeros(P.n2)), SolverParams(max_iter=5))
        assert result.iterations >= 1
    assert calls == []  # a diagonal H_y, and the spectra of A^T A, need no eigendecomposition
