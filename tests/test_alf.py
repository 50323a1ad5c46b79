from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from prsqp import (
    AugmentedIterate,
    Iterate,
    SolverParams,
    UnknownLipschitz,
    eval_alf,
    eval_merit_hat,
    grad_alf,
    make_classification,
    make_huber_lasso,
    make_quadratic,
    make_rng,
    normal_sample,
)
from toys import central_diff, rel_err, zero_problem


def _w(x, y, lam):
    return Iterate(np.atleast_1d(x), np.atleast_1d(y), np.atleast_1d(lam))


# ----- augmented Lagrangian value ---------------------------------------------


def test_eval_alf_frozen_scalar_cases():
    P = zero_problem(a=1.0)
    assert eval_alf(P, _w(0.0, 0.0, 0.0), 2.0) == 0.0
    assert eval_alf(P, _w(1.0, 0.0, 0.0), 2.0) == 1.0  # penalty only
    assert eval_alf(P, _w(1.0, 0.0, 3.0), 2.0) == -2.0  # -3*1 + 1


def test_eval_alf_feasible_point_ignores_multiplier():
    P = make_quadratic([1.0, 0.0], [0.5], [[1.0, 2.0]])
    rng = make_rng(0)
    x = normal_sample(rng, 2)
    y = P.apply_A(x)
    base = P.eval_f(x) + P.eval_g(y)
    for lam in (0.0, -3.0, 11.0):
        w = Iterate(x, y, np.array([lam]))
        assert abs(eval_alf(P, w, 4.0) - base) <= 1e-12


def test_eval_alf_requires_positive_beta():
    P = zero_problem()
    with pytest.raises(ValueError):
        eval_alf(P, _w(0.0, 0.0, 0.0), 0.0)


# ----- augmented Lagrangian gradients ------------------------------------------


def test_grad_alf_frozen_scalar_case():
    P = zero_problem(a=1.0)
    g = grad_alf(P, _w(1.0, 0.0, 3.0), 2.0)
    assert np.allclose(g.gx, [-1.0], atol=1e-15)
    assert np.allclose(g.gy, [1.0], atol=1e-15)
    assert np.allclose(g.glam, [-1.0], atol=1e-15)


def test_grad_alf_vanishes_at_feasible_zero_multiplier():
    P = zero_problem(a=1.0)
    g = grad_alf(P, _w(0.7, 0.7, 0.0), 2.0)
    assert np.max(np.abs(g.gx)) == 0.0
    assert np.max(np.abs(g.gy)) == 0.0
    assert np.max(np.abs(g.glam)) == 0.0


def _problems_for_gradient_checks():
    return [
        make_quadratic([1.0, -0.5, 2.0], [0.3, -0.7], [[1.0, 0.0, -1.0], [2.0, 1.0, 0.5]]),
        make_classification(6, 9, rng=make_rng(21)),
        make_huber_lasso(8, 20, rng=make_rng(22)),
    ]


def test_grad_alf_matches_finite_differences():
    beta = 1.7
    rng = make_rng(23)
    for P in _problems_for_gradient_checks():
        for _ in range(10):
            x = normal_sample(rng, P.n1)
            y = normal_sample(rng, P.n2)
            lam = normal_sample(rng, P.n2)
            g = grad_alf(P, Iterate(x, y, lam), beta)
            fx = central_diff(lambda u: eval_alf(P, Iterate(u, y, lam), beta), x)
            fy = central_diff(lambda v: eval_alf(P, Iterate(x, v, lam), beta), y)
            fl = central_diff(lambda m: eval_alf(P, Iterate(x, y, m), beta), lam)
            assert rel_err(fx, g.gx) <= 1e-6
            assert rel_err(fy, g.gy) <= 1e-6
            assert rel_err(fl, g.glam) <= 1e-6


# ----- merit function ------------------------------------------------------------


def test_merit_equals_alf_when_tail_direction_zero():
    P = make_quadratic([1.0], [0.0], [[1.0]])
    params = SolverParams()
    what = AugmentedIterate(_w(0.3, -0.2, 0.9), np.zeros(1))
    assert eval_merit_hat(P, what, params, eta2_y=3.0) == eval_alf(P, what.w, params.beta)


def test_merit_tail_scales_quadratically():
    P = make_quadratic([1.0], [0.0], [[1.0]])
    params = SolverParams()
    w = _w(0.3, -0.2, 0.9)
    base = eval_alf(P, w, params.beta)
    tail1 = eval_merit_hat(P, AugmentedIterate(w, np.array([0.5])), params, eta2_y=3.0) - base
    tail2 = eval_merit_hat(P, AugmentedIterate(w, np.array([1.0])), params, eta2_y=3.0) - base
    assert abs(tail2 - 4.0 * tail1) <= 1e-12 * max(1.0, abs(tail2))


def test_merit_tail_frozen_weight():
    # beta=1, r=0.1, s=1, alpha=0, L_g=1, eta2_y=3, d=(1):
    # tail = 6/1.1 * (1 + 1 + 9) = 60 exactly
    P = make_quadratic([1.0], [0.0], [[1.0]])
    params = SolverParams(beta=1.0, r=0.1, s=1.0, alpha=0.0)
    w = _w(0.3, -0.2, 0.9)
    tail = eval_merit_hat(P, AugmentedIterate(w, np.array([1.0])), params, eta2_y=3.0) - eval_alf(
        P, w, params.beta
    )
    assert abs(tail - 60.0) <= 1e-12 * 60.0


def test_merit_dominates_alf():
    P = make_quadratic([1.0, 0.0], [0.5], [[1.0, 2.0]])
    params = SolverParams()
    rng = make_rng(24)
    for _ in range(20):
        w = Iterate(normal_sample(rng, 2), normal_sample(rng, 1), normal_sample(rng, 1))
        d = normal_sample(rng, 1)
        merit = eval_merit_hat(P, AugmentedIterate(w, d), params, eta2_y=2.0)
        alf = eval_alf(P, w, params.beta)
        assert merit >= alf
        if np.any(d):
            assert merit > alf


def test_merit_needs_lipschitz_and_nonzero_dual_steps():
    P = make_quadratic([1.0], [0.0], [[1.0]])
    what = AugmentedIterate(_w(0.0, 0.0, 0.0), np.array([1.0]))
    # construction rejects this; probe the guard directly with an object of the same attributes
    cancelling = SimpleNamespace(**{**asdict(SolverParams()), "r": 1.0, "s": -1.0})
    with pytest.raises(ValueError):
        eval_merit_hat(P, what, cancelling, eta2_y=1.0)
    Q = zero_problem()
    Q.lipschitz_g = None
    with pytest.raises(UnknownLipschitz):
        eval_merit_hat(Q, what, SolverParams(), eta2_y=1.0)


# ----- iterate containers ---------------------------------------------------------


def test_iterate_checks_multiplier_dimension():
    with pytest.raises(ValueError):
        Iterate(np.zeros(2), np.zeros(3), np.zeros(2))


def test_augmented_iterate_checks_tail_dimension():
    w = Iterate(np.zeros(2), np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        AugmentedIterate(w, np.zeros(2))


def test_iterate_concat_order():
    w = Iterate(np.array([1.0, 2.0]), np.array([3.0]), np.array([4.0]))
    assert np.array_equal(w.concat(), [1.0, 2.0, 3.0, 4.0])
