import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from prsqp import (
    GdParams,
    SolveStatus,
    composite_gradient,
    composite_objective,
    gradient_descent,
    make_classification,
    make_huber_lasso,
    make_quadratic,
    make_rng,
    normal_sample,
    random_quadratic,
)
from toys import central_diff, decoupled_problem, rel_err


def test_armijo_converges_on_quadratic():
    P = random_quadratic(5, 3, make_rng(50))
    result = gradient_descent(P, np.zeros(5), GdParams(max_iter=10_000, tol=1e-6))
    assert result.status is SolveStatus.CONVERGED
    assert np.max(np.abs(composite_gradient(P, result.final_x))) <= 1e-6


def test_composite_gradient_matches_finite_differences():
    rng = make_rng(51)
    problems = [
        random_quadratic(5, 3, rng),
        make_classification(8, 10, rng=make_rng(52)),
        make_huber_lasso(10, 24, rng=make_rng(53)),
    ]
    for P in problems:
        for _ in range(10):
            x = normal_sample(rng, P.n1)
            fd = central_diff(lambda u: composite_objective(P, u), x)
            assert rel_err(fd, composite_gradient(P, x)) <= 1e-6


def test_armijo_trace_is_monotone_on_desk_recovery():
    P = make_huber_lasso(64, 256, rng=make_rng(54))
    result = gradient_descent(P, np.zeros(256), GdParams(max_iter=60))
    assert result.status is SolveStatus.ITER_LIMIT
    values = [composite_objective(P, np.zeros(256))] + [rec.objective for rec in result.trace]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_armijo_exhaustion_is_reported():
    P = decoupled_problem(lambda x: x**4, lambda x: 4.0 * x**3, lambda x: 12.0 * x * x)
    result = gradient_descent(P, np.array([10.0]), GdParams(max_backtracks=1))
    assert result.status is SolveStatus.LINE_SEARCH_FAILED


def test_gd_params_validation():
    with pytest.raises(ValueError):
        GdParams(rho=0.0)
    with pytest.raises(ValueError):
        GdParams(nu=1.0)
    with pytest.raises(ValueError):
        GdParams(max_iter=0)
    with pytest.raises(FrozenInstanceError):
        GdParams().tol = 0.0


def test_trace_records_carry_post_step_measurements():
    P = random_quadratic(3, 2, make_rng(55))
    result = gradient_descent(P, np.zeros(3), GdParams(max_iter=5))
    assert [rec.k for rec in result.trace] == list(range(len(result.trace)))
    for rec in result.trace:
        assert rec.t > 0.0
        assert np.isfinite(rec.objective) and np.isfinite(rec.grad_inf)


def _counting(P):
    # P with eval_f and grad_f counting their calls
    calls = {"eval_f": 0, "grad_f": 0}

    def counted(name):
        fn = getattr(P, name)

        def call(x):
            calls[name] += 1
            return fn(x)

        return call

    return replace(P, eval_f=counted("eval_f"), grad_f=counted("grad_f")), calls


def test_each_iterate_is_evaluated_once():
    # grad F and F of an iterate are carried from the step that made it to the
    # trace record and the next iteration: grad f once per iteration and once at
    # x0; f once per Armijo trial and once at x0
    P, calls = _counting(make_huber_lasso(16, 64, rng=make_rng(40)))
    result = gradient_descent(P, np.zeros(P.n1), GdParams(max_iter=50, tol=0.0))
    trials = sum(round(math.log(rec.t, 0.5)) + 1 for rec in result.trace)
    assert result.iterations == 50 and trials == 350
    assert calls == {"eval_f": 1 + trials, "grad_f": 51}
