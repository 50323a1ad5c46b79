import math
import re
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
    # no iterate's gradient is exactly zero here, so the run spends its budget
    P = random_quadratic(5, 3, make_rng(50))
    result = gradient_descent(P, np.zeros(5), GdParams(max_iter=100))
    assert result.status is SolveStatus.ITER_LIMIT
    grad_inf = np.max(np.abs(composite_gradient(P, result.final_x)))
    assert grad_inf == result.trace[-1].grad_inf and grad_inf <= 1e-6


def test_converged_means_an_exactly_zero_gradient():
    # F = 0.5 ||x - c_f||^2 + 0.5 (0 - c_g)^2: the unit step from zero lands on c_f exactly
    P = make_quadratic([1.0, -2.0], [0.5], [[0.0, 0.0]])
    result = gradient_descent(P, np.zeros(2), GdParams())
    assert result.status is SolveStatus.CONVERGED and result.iterations == 1
    assert result.trace[0].grad_inf == 0.0 and np.array_equal(result.final_x, [1.0, -2.0])
    at_rest = gradient_descent(P, np.array([1.0, -2.0]), GdParams())
    assert at_rest.status is SolveStatus.CONVERGED and at_rest.iterations == 0
    # a NaN gradient is no zero one: no trial decreases F
    nan_gradient = decoupled_problem(lambda x: x * x, lambda x: math.nan, lambda x: 2.0)
    assert gradient_descent(nan_gradient, np.zeros(1), GdParams()).status is SolveStatus.LINE_SEARCH_FAILED


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
    # grad F(1e20) = 4e60: after all 60 halvings the step is still 3.5e42 long, so no trial decreases F
    P = decoupled_problem(lambda x: x**4, lambda x: 4.0 * x**3, lambda x: 12.0 * x * x)
    result = gradient_descent(P, np.array([1e20]), GdParams())
    assert result.status is SolveStatus.LINE_SEARCH_FAILED and result.iterations == 0


def test_gd_params_validation():
    with pytest.raises(ValueError, match="^max_iter must be >= 1, got 0$"):
        GdParams(max_iter=0)
    with pytest.raises(FrozenInstanceError):
        GdParams().max_iter = 5
    # the check SolverParams makes of the same field: a count is an integer, and no bool
    for bad in (2.5, float("nan"), True, "1"):
        with pytest.raises(ValueError, match=f"^max_iter must be an integer, got {re.escape(repr(bad))}$"):
            GdParams(max_iter=bad)
    assert GdParams(max_iter=np.int64(3)).max_iter == 3


def test_gd_params_take_no_tolerance():
    # the stop is fixed at an exactly zero gradient, the one value every caller set
    with pytest.raises(TypeError, match="tol"):
        GdParams(tol=0.0)


def test_trace_records_carry_post_step_measurements():
    P = random_quadratic(3, 2, make_rng(55))
    result = gradient_descent(P, np.zeros(3), GdParams(max_iter=5))
    assert [rec.k for rec in result.trace] == list(range(len(result.trace)))
    for rec in result.trace:
        assert rec.t > 0.0
        assert np.isfinite(rec.objective) and np.isfinite(rec.grad_inf)


def _counting(P):
    # P with eval_f, grad_f and apply_A counting their calls
    calls = dict.fromkeys(("eval_f", "grad_f", "apply_A"), 0)

    def counted(name):
        fn = getattr(P, name)

        def call(x):
            calls[name] += 1
            return fn(x)

        return call

    Q = replace(P, eval_f=counted("eval_f"), grad_f=counted("grad_f"))
    Q.apply_A = counted("apply_A")  # a method, not a field
    return Q, calls


def test_each_iterate_is_evaluated_once():
    # each point is evaluated through one record: A x once per Armijo trial and
    # once at x0, and so is f; grad F of an iterate is carried from the step
    # that made it to the trace record and the next iteration, so grad f runs
    # once per iteration and once at x0
    P, calls = _counting(make_huber_lasso(16, 64, rng=make_rng(40)))
    result = gradient_descent(P, np.zeros(P.n1), GdParams(max_iter=50))
    trials = sum(round(math.log(rec.t, 0.5)) + 1 for rec in result.trace)
    assert result.iterations == 50 and trials == 350
    assert calls == {"eval_f": 1 + trials, "grad_f": 51, "apply_A": 1 + trials}
