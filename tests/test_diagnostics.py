import math
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest

import prsqp.diagnostics
from prsqp import (
    Iterate,
    SolverParams,
    SpectralBounds,
    classify_regime,
    compute_deltas,
    compute_gamma,
    diagnostics_report,
    initial_state,
    iterate_once,
    kkt_residual,
    make_classification,
    make_quadratic,
    make_rng,
    quadratic_kkt_point,
    random_quadratic,
    spectral_bounds,
    suggest_params,
    validate_params,
)
from toys import scalar_problem, zero_problem


def _unit_bounds():
    return SpectralBounds(
        eta_x=1.0,
        eta_y=1.0,
        lambda_lo_x=-1.0,
        lambda_lo_y=-1.0,
        eta1_x=1.0,
        eta1_y=1.0,
        eta2_x=3.0,
        eta2_y=3.0,
    )


# ----- first-order residuals ---------------------------------------------------


def test_kkt_residual_zero_problem():
    P = zero_problem()
    res = kkt_residual(P, Iterate(np.zeros(1), np.zeros(1), np.zeros(1)))
    assert res.total == 0.0 and res.composite == 0.0


def test_kkt_residual_vanishes_at_oracle_point():
    P = make_quadratic([1.0], [0.0], [[1.0]])
    x, y, lam = quadratic_kkt_point(P)
    res = kkt_residual(P, Iterate(x, y, lam))
    assert res.total <= 1e-12
    assert res.composite <= 1e-12


def test_kkt_residual_at_origin():
    P = make_quadratic([1.0], [0.0], [[1.0]])
    res = kkt_residual(P, Iterate(np.zeros(1), np.zeros(1), np.zeros(1)))
    assert res.stat_x == 1.0  # grad f(0) = -1, multiplier 0
    assert res.feas == 0.0
    assert res.total == max(res.stat_x, res.stat_y, res.feas)


def test_kkt_residual_total_is_nan_when_a_part_is_nan():
    # f = x^2/2, g = y^2/2 on y >= 0 with a gradient undefined (NaN) below 0
    half_square = lambda v: 0.5 * v * v
    grad_g = lambda y: y if y >= 0 else math.nan
    P = scalar_problem(half_square, lambda x: x, lambda x: 1.0, half_square, grad_g, lambda y: 1.0)
    res = kkt_residual(P, Iterate(np.array([-1e-3]), np.array([-1e-3]), np.zeros(1)))
    assert math.isnan(res.stat_y) and res.stat_x == 1e-3
    assert math.isnan(res.total)
    # a finite split residual beside a NaN composite one (grad g(A x) is NaN)
    res = kkt_residual(P, Iterate(np.array([-1e-3]), np.array([1e-3]), np.zeros(1)))
    assert math.isnan(res.composite)
    assert res.total == 2e-3


def test_kkt_residual_fields_nonnegative():
    rng = make_rng(40)
    P = random_quadratic(4, 3, rng)
    from prsqp import normal_sample

    w = Iterate(normal_sample(rng, 4), normal_sample(rng, 3), normal_sample(rng, 3))
    res = kkt_residual(P, w)
    assert min(res.stat_x, res.stat_y, res.feas, res.composite, res.total) >= 0.0


# ----- curvature bounds -----------------------------------------------------------


def test_spectral_bounds_frozen_scalar_cases():
    P = make_quadratic([0.0], [0.0], [[1.0]])
    params = SolverParams(beta=1.0, ell=1.0, sigma=1.0)
    b = spectral_bounds(P, params, np.eye(1), np.zeros((1, 1)))
    assert abs(b.eta1_x - 3.0) <= 1e-8
    assert abs(b.eta1_y - 2.0) <= 1e-8
    assert abs(b.eta2_y - 2.0) <= 1e-8


def test_spectral_bounds_accept_the_models_iterate_once_returns():
    # the refreshed y-model is kept as its diagonal; its bounds are those of the matrix
    P = make_classification(20, 20, rng=make_rng(31))
    params = SolverParams()
    w0 = Iterate(np.zeros(P.n1), np.zeros(P.n2), np.zeros(P.n2))
    state = iterate_once(initial_state(P, w0, params)).state
    h_x, h_y = state.metric_x.model, state.metric_y.model
    assert h_y.shape == (P.n2,)
    dense = spectral_bounds(P, params, h_x, np.diag(h_y))
    assert spectral_bounds(P, params, h_x, h_y) == dense


def test_spectral_bounds_rejects_nonpositive_floor():
    P = make_quadratic([0.0], [0.0], [[1.0]])
    params = SolverParams(beta=1.0, ell=1.0, sigma=1.0)
    with pytest.raises(ValueError, match="^metric lower bounds must be positive, got eta1_x = "):
        spectral_bounds(P, params, -3.0 * np.eye(1), np.zeros((1, 1)))


# ----- step floor -------------------------------------------------------------------


def test_gamma_frozen_value():
    P = make_quadratic([0.0], [0.0], [[1.0]])  # L_f = L_g = 1, unit coupling
    params = SolverParams(alpha=0.0)
    gamma = compute_gamma(P, params, _unit_bounds())
    # c = 1 - 0.4 = 0.6; gamma = 0.6 min(1, 0.6 / 2, 0.6 / 2) = 0.18
    assert abs(gamma - 0.18) <= 1e-15


def test_gamma_shrinks_toward_acceleration_limit():
    P = make_quadratic([0.0], [0.0], [[1.0]])
    bounds = _unit_bounds()
    alphas = [0.0, 0.5, 1.0, 1.4, 1.49]  # the range ends at 1/rho - 1 = 1.5
    gammas = []
    for alpha in alphas:
        params = SolverParams(alpha=alpha)
        gammas.append(compute_gamma(P, params, bounds))
    assert all(a > b for a, b in zip(gammas, gammas[1:]))
    assert gammas[-1] <= 1e-2


def test_gamma_saturates_at_backtracking_ratio():
    P = make_quadratic([0.0], [0.0], [[1.0]])
    big = SpectralBounds(
        eta_x=1.0,
        eta_y=1.0,
        lambda_lo_x=0.0,
        lambda_lo_y=0.0,
        eta1_x=1e6,
        eta1_y=1e6,
        eta2_x=1e6,
        eta2_y=1e6,
    )
    params = SolverParams(alpha=0.0)
    assert compute_gamma(P, params, big) == 0.6


def test_gamma_degenerates_with_warning_beyond_range():
    P = make_quadratic([0.0], [0.0], [[1.0]])
    params = SolverParams(alpha=2.0, relaxed_alpha=True)
    with pytest.warns(UserWarning):
        assert compute_gamma(P, params, _unit_bounds()) == 0.0


def test_gamma_requires_lipschitz_constants():
    P = make_quadratic([0.0], [0.0], [[1.0]])
    P.lipschitz_f = None
    with pytest.raises(ValueError, match="^compute_gamma needs lipschitz_f and lipschitz_g on the problem$"):
        compute_gamma(P, SolverParams(), _unit_bounds())


# ----- decrease margins ---------------------------------------------------------------


def test_delta_x_frozen_value_with_unit_second_dual_step():
    P = make_quadratic([0.0], [0.0], [[1.0]])
    params = SolverParams(alpha=0.0, r=0.1, s=1.0)
    delta_x, _ = compute_deltas(P, params, _unit_bounds(), gamma=0.18)
    # s = 1 annihilates the coupling term, leaving rho * gamma * eta1_x = 0.4 * 0.18
    assert abs(delta_x - 0.072) <= 1e-15


def test_delta_y_frozen_value():
    P = make_quadratic([0.0], [0.0], [[1.0]])
    params = SolverParams(alpha=0.0, beta=1.0, r=0.1, s=1.0)
    _, delta_y = compute_deltas(P, params, _unit_bounds(), gamma=0.18)
    # 0.072 - (6/1.1)(1 + 2 + 18) - 0.1/1.1 = 0.072 - 126.1/1.1
    assert abs(delta_y - -114.56436363636364) <= 1e-9
    assert delta_y < 0  # reference settings sit far outside the certified region


def test_deltas_reject_cancelling_dual_steps():
    P = make_quadratic([0.0], [0.0], [[1.0]])
    params = SimpleNamespace(**{**asdict(SolverParams()), "r": 1.0, "s": -1.0})  # construction rejects this
    with pytest.raises(ValueError):
        compute_deltas(P, params, _unit_bounds(), gamma=0.1)


def test_deltas_need_lipschitz_g():
    P = make_quadratic([0.0], [0.0], [[1.0]])
    P.lipschitz_g = None
    with pytest.raises(ValueError, match="^compute_deltas needs lipschitz_g on the problem$"):
        compute_deltas(P, SolverParams(), _unit_bounds(), gamma=0.1)


def test_deltas_name_the_margins_when_a_square_overflows():
    # (eta2_y / (1 + alpha)) ** 2 and (1 - s) ** 2 raised Python's bare errno tuple
    P = make_quadratic([0.0], [0.0], [[1.0]])
    for params, bounds in (
        (SolverParams(), replace(_unit_bounds(), eta2_y=1e300)),
        (SolverParams(s=1e200), _unit_bounds()),
    ):
        with pytest.raises(OverflowError, match="^decrease margins delta_x, delta_y overflow float range"):
            compute_deltas(P, params, bounds, gamma=0.1)


# ----- regime classification -------------------------------------------------------------


def test_regime_partition():
    assert classify_regime(0.1, 1.0) == "Ascent"
    assert classify_regime(-0.1, -0.1) == "Descent"
    assert classify_regime(-0.1, 1.0) == "Mixed"
    assert classify_regime(0.0, 1.0) == "Mixed"
    assert classify_regime(1.0, 0.0) == "Mixed"


# ----- parameter recipes -----------------------------------------------------------------


def test_ascent_recipe_signs_and_certification():
    P = make_quadratic([1.0], [0.0], [[1.0]])
    params = suggest_params("alda", P)
    assert params.s == 1.0 and params.r > 0.0
    assert validate_params(params) == []
    report = diagnostics_report(P, params)
    assert report.delta_x > 0 and report.delta_y > 0
    assert report.margins_ok
    assert report.regime == "Ascent"


def test_descent_recipe_signs_and_certification():
    P = make_quadratic([1.0], [0.0], [[1.0]])
    params = suggest_params("aldd", P)
    assert params.r < 0.0 and params.s < 0.0 and params.r + params.s < 0.0
    assert validate_params(params) == []
    report = diagnostics_report(P, params)
    assert report.margins_ok
    assert report.regime == "Descent"


def test_recipes_on_random_instances():
    rng = make_rng(41)
    for _ in range(3):
        P = random_quadratic(4, 3, rng)
        for direction in ("alda", "aldd"):
            params = suggest_params(direction, P)
            assert diagnostics_report(P, params).margins_ok


def test_recipe_rejects_unknown_direction_and_missing_constants():
    P = make_quadratic([1.0], [0.0], [[1.0]])
    with pytest.raises(ValueError):
        suggest_params("both", P)
    P.lipschitz_g = None
    with pytest.raises(ValueError, match="^suggest_params needs both Lipschitz constants on the problem$"):
        suggest_params("alda", P)


def test_recipes_fix_s_by_direction():
    # ascent has s = 1 and r > 0, descent s = -0.5 and r < 0, so r + s < 0
    # there: by the sign rule its fixed points repel; s is no argument
    P = make_quadratic([1.0], [0.0], [[1.0]])
    alda, aldd = suggest_params("alda", P), suggest_params("aldd", P)
    assert alda.s == 1.0 and alda.r > 0.0
    assert aldd.s == -0.5 and aldd.r < 0.0 and aldd.r + aldd.s < 0.0
    for direction in ("alda", "aldd"):
        with pytest.raises(TypeError):
            suggest_params(direction, P, s=-0.5)


def _recipe_wells():
    # t^4 / 4 - c t^2 / 2 in f (c = 2) and in g (c = 0.5), nonconvex at zero,
    # with both Lipschitz constants: the input found where aldd raises ell
    well = lambda c: (lambda t: t**4 / 4 - c * t * t / 2, lambda t: t**3 - c * t, lambda t: 3 * t * t - c)
    return scalar_problem(*well(2.0), *well(0.5), a=1.0, lipschitz_f=10.0, lipschitz_g=10.0)


def test_aldd_recipe_raises_ell_on_wells_nonconvex_at_zero():
    P = _recipe_wells()
    start = 1.1 * (2.0 - 1.0)  # 1.1 (-lambda_min(H_x(0)) - beta lambda_min(A^T A)) at beta = 1
    descent = suggest_params("aldd", P)
    assert descent.ell > start and descent.r < 0.0
    assert diagnostics_report(P, descent).margins_ok
    # at s = 1 the bound on ell is its start, as (1 - s)^2 = 0
    ascent = suggest_params("alda", P)
    assert ascent.ell == start and ascent.r > 0.0
    assert diagnostics_report(P, ascent).margins_ok


def test_recipe_raises_when_its_rounds_run_out(monkeypatch):
    # two rounds end on a raised ell: the recipe returned an r computed for the previous ell
    monkeypatch.setattr(prsqp.diagnostics, "_RECIPE_ROUNDS", 2)
    with pytest.raises(ValueError, match="^recipe did not stabilize within 2 rounds$"):
        suggest_params("aldd", _recipe_wells())


def test_recipes_name_r_when_its_square_overflows():
    # (eta2_y / (1 + alpha)) ** 2 in r's numerator raised Python's bare errno tuple
    P = random_quadratic(4, 3, make_rng(1))
    for beta in (1e160, 1e300):
        for direction in ("alda", "aldd"):
            with pytest.raises(OverflowError, match="^recipe dual step r overflows float range at eta2_y = "):
                suggest_params(direction, P, base=SolverParams(beta=beta))


def test_report_margins_flag_tracks_deltas():
    P = make_quadratic([1.0], [0.0], [[1.0]])
    report = diagnostics_report(P, SolverParams())
    assert report.margins_ok == (report.delta_x > 0 and report.delta_y > 0)
    assert not report.margins_ok  # reference defaults are not inside the certified region
