"""End-to-end acceptance checks for the solver library.

Each test covers one numbered acceptance criterion and prints a single
``[criterion N] PASS/FAIL`` line with the measured quantities before
asserting, so a plain ``pytest -v`` run doubles as the acceptance report.
One criterion (7) encodes an outcome clause that this implementation does
not meet for structural reasons; its test states the criterion as given,
reports the measured values, and fails. The mechanism is described in the
README's limitations section.
"""

import csv
import json
import time

import numpy as np
import pytest

from prsqp import (
    AugmentedIterate,
    GdParams,
    Iterate,
    SolveStatus,
    SolverParams,
    composite_gradient,
    composite_objective,
    compute_deltas,
    compute_gamma,
    eval_alf,
    eval_merit_hat,
    grad_alf,
    gradient_descent,
    hessian_pair,
    kkt_residual,
    make_classification,
    make_huber_lasso,
    make_quadratic,
    make_rng,
    normal_sample,
    problem_to_json,
    quadratic_kkt_point,
    random_quadratic,
    run,
    spectral_bounds,
    spectral_norm,
    suggest_params,
    validate_params,
)
from prsqp.cli import main
from toys import central_diff, rel_err


def _verdict(n, ok, detail):
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


def _zero_start(P):
    return Iterate(np.zeros(P.n1), np.zeros(P.n2), np.zeros(P.n2))


def _oracle_problem():
    return make_quadratic([1.0], [0.0], [[1.0]])


# ----- criterion 1: gradient oracles ---------------------------------------------------------


def test_criterion_01_gradient_oracles_match_central_differences():
    t0 = time.perf_counter()
    problems = [
        random_quadratic(6, 4, make_rng(101)),
        make_classification(50, 50, rng=make_rng(102)),
        make_huber_lasso(64, 256, rng=make_rng(103)),
    ]
    beta = 1.3
    worst = {}
    rng = make_rng(104)
    for P in problems:
        err = 0.0
        for _ in range(10):
            x = normal_sample(rng, P.n1)
            y = normal_sample(rng, P.n2)
            lam = normal_sample(rng, P.n2)
            err = max(err, rel_err(P.grad_f(x), central_diff(P.eval_f, x)))
            err = max(err, rel_err(P.grad_g(y), central_diff(P.eval_g, y)))
            err = max(
                err,
                rel_err(
                    composite_gradient(P, x),
                    central_diff(lambda v: composite_objective(P, v), x),
                ),
            )
            g = grad_alf(P, Iterate(x, y, lam), beta)
            err = max(
                err,
                rel_err(g.gx, central_diff(lambda v: eval_alf(P, Iterate(v, y, lam), beta), x)),
            )
            err = max(
                err,
                rel_err(g.gy, central_diff(lambda v: eval_alf(P, Iterate(x, v, lam), beta), y)),
            )
            err = max(
                err,
                rel_err(g.glam, central_diff(lambda v: eval_alf(P, Iterate(x, y, v), beta), lam)),
            )
        worst[P.name] = err
    elapsed = time.perf_counter() - t0
    ok = max(worst.values()) <= 1e-6 and elapsed < 10.0
    detail = (
        "worst relative FD error "
        + ", ".join(f"{name} {err:.2e}" for name, err in worst.items())
        + f" (tolerance 1e-6), {elapsed:.1f}s"
    )
    _verdict(1, ok, detail)


# ----- criterion 2: closed-form first-order oracle -------------------------------------------


def test_criterion_02_solver_reaches_closed_form_first_order_points():
    t0 = time.perf_counter()
    instances = [_oracle_problem()] + [random_quadratic(5, 5, make_rng(200 + i)) for i in range(10)]
    params = SolverParams(tol_step=1e-8)
    worst_err = 0.0
    worst_kkt = 0.0
    statuses = set()
    for P in instances:
        xs, ys, ls = quadratic_kkt_point(P)
        result = run(P, _zero_start(P), params)
        statuses.add(result.status)
        w_star = np.concatenate([xs, ys, ls])
        worst_err = max(worst_err, float(np.max(np.abs(result.final.concat() - w_star))))
        worst_kkt = max(worst_kkt, kkt_residual(P, result.final).total)
    elapsed = time.perf_counter() - t0
    ok = (
        statuses == {SolveStatus.CONVERGED}
        and worst_err <= 1e-3
        and worst_kkt <= 1e-4
        and elapsed < 30.0
    )
    _verdict(
        2,
        ok,
        f"11 instances all Converged, worst |w - w*| {worst_err:.2e} (<= 1e-3), "
        f"worst kkt {worst_kkt:.2e} (<= 1e-4), {elapsed:.1f}s",
    )


# ----- criterion 3: first-order start is a fixed point ----------------------------------------


def test_criterion_03_first_order_start_stops_in_one_iteration():
    worst_iters = 0
    worst_kkt = 0.0
    for P in (_oracle_problem(), random_quadratic(5, 3, make_rng(31))):
        xs, ys, ls = quadratic_kkt_point(P)
        result = run(P, Iterate(xs, ys, ls), SolverParams())
        worst_iters = max(worst_iters, result.iterations)
        worst_kkt = max(worst_kkt, kkt_residual(P, result.final).total)
    ok = worst_iters <= 1 and worst_kkt <= 1e-8
    _verdict(
        3,
        ok,
        f"start at the exact first-order point: {worst_iters} iteration(s), "
        f"final kkt {worst_kkt:.2e} (<= 1e-8)",
    )


# ----- criterion 4: accepted steps respect the certified floor --------------------------------


def test_criterion_04_accepted_steps_stay_above_certified_floor():
    instances = [random_quadratic(5, 4, make_rng(400 + i)) for i in range(5)]
    settings = [(0.1, 1.0, 0.0), (-0.1, 1.0, 0.25), (0.5, 0.5, -0.25)]
    total = 0
    below = 0
    min_margin = np.inf
    max_gamma = 0.0
    for P in instances:
        for r, s, alpha in settings:
            params = SolverParams(r=r, s=s, alpha=alpha, tol_step=1e-14, max_iter=300)
            H_x, H_y = hessian_pair(P, np.zeros(P.n1), np.zeros(P.n2))
            bounds = spectral_bounds(P, params, H_x, H_y)
            gamma = compute_gamma(P, params, bounds)
            max_gamma = max(max_gamma, gamma)
            result = run(P, _zero_start(P), params)
            for rec in result.trace:
                total += 2
                below += int(rec.t_x < gamma) + int(rec.t_y < gamma)
                min_margin = min(min_margin, rec.t_x - gamma, rec.t_y - gamma)
    ok = total >= 500 and below == 0
    _verdict(
        4,
        ok,
        f"{total} accepted steps, {total - below}/{total} at or above the floor "
        f"(largest floor {max_gamma:.3f}, smallest clearance {min_margin:.3f})",
    )


# ----- criterion 5: certified merit decrease under the ascent recipe ---------------------------


def test_criterion_05_merit_decreases_by_certified_margins_under_ascent_recipe():
    P = _oracle_problem()
    params = suggest_params("alda", P)
    H_x, H_y = hessian_pair(P, np.zeros(1), np.zeros(1))
    bounds = spectral_bounds(P, params, H_x, H_y)
    gamma = compute_gamma(P, params, bounds)
    delta_x, delta_y = compute_deltas(P, params, bounds, gamma)
    assert delta_x > 0 and delta_y > 0

    w0 = _zero_start(P)
    eta2_y = spectral_norm(H_y) + params.beta + params.sigma
    merit = [eval_merit_hat(P, AugmentedIterate(w=w0, d_y_prev=np.zeros(1)), params, eta2_y)]
    result = run(P, w0, params)
    merit += [rec.L_hat for rec in result.trace]

    checked = 0
    violations = 0
    for k, rec in enumerate(result.trace):
        required = delta_x * rec.norm_dx**2 + delta_y * rec.norm_dy**2
        slack = 1e-9 * (1.0 + abs(merit[k]))
        if not (np.isfinite(merit[k]) and np.isfinite(merit[k + 1]) and np.isfinite(required)):
            break
        checked += 1
        if merit[k] - merit[k + 1] < required - slack:
            violations += 1
    ok = checked >= 30 and violations == 0
    _verdict(
        5,
        ok,
        f"certified margins delta_x {delta_x:.3g}, delta_y {delta_y:.3g}; merit decrease "
        f"inequality holds at {checked - violations}/{checked} float64-finite iterations "
        f"(recipe drives the merit beyond float range after iteration {checked}; "
        f"status {result.status.value})",
    )


# ----- criterion 6: direction-descent identity -------------------------------------------------


def test_criterion_06_search_directions_satisfy_descent_identity():
    rng = make_rng(600)
    instances = [
        _oracle_problem(),
        random_quadratic(5, 3, make_rng(61)),
        make_classification(20, 20, rng=make_rng(62)),
        make_huber_lasso(16, 64, rng=make_rng(63)),
    ]
    worst = 0.0
    steps = 0

    for P in instances:
        for alpha in (-0.5, 0.0, 1.0):
            scale = 1.0 / (1.0 + alpha)
            collected = []
            run(
                P,
                Iterate(normal_sample(rng, P.n1), normal_sample(rng, P.n2), normal_sample(rng, P.n2)),
                SolverParams(alpha=alpha, max_iter=60),
                callback=lambda out: collected.append(out.internals),
            )
            assert collected, f"no completed iterations on {P.name} at alpha={alpha}"
            for it in collected:
                for gd_, quad in ((it["gx_dot_dx"], it["quad_x"]), (it["gy_dot_dy"], it["quad_y"])):
                    steps += 1
                    worst = max(worst, abs(gd_ + scale * quad) / max(1.0, abs(scale * quad)))
    ok = worst <= 1e-9
    _verdict(
        6,
        ok,
        f"g.d = -||d||^2_H/(1+alpha) on all {steps} recorded block steps, "
        f"worst relative defect {worst:.2e} (<= 1e-9)",
    )


# ----- criterion 7: dual regimes on the classification benchmark -------------------------------


def test_criterion_07_dual_regimes_on_classification_benchmark():
    t0 = time.perf_counter()
    settings = [(0.1, 1.0), (-0.1, 1.0), (-0.1, -0.1)]
    seeds = (1, 2, 3)
    lines = []
    ok = True
    for r, s in settings:
        outcomes = []
        for seed in seeds:
            P = make_classification(100, 100, rng=make_rng(seed))
            params = SolverParams(r=r, s=s, alpha=0.0)
            result = run(P, _zero_start(P), params)
            ofv = composite_objective(P, result.final.x)
            feas = float(np.max(np.abs(P.apply_A(result.final.x) - result.final.y)))
            good = (
                result.status is SolveStatus.CONVERGED
                and 0.3 <= ofv <= 1.1
                and feas <= 1e-2
            )
            ok = ok and good
            outcomes.append((result.status.value, result.iterations, ofv, feas))
        st = {o[0] for o in outcomes}
        if st == {"Converged"}:
            lines.append(
                f"({r},{s}) Converged x3 in {min(o[1] for o in outcomes)}-"
                f"{max(o[1] for o in outcomes)} iters, ofv {min(o[2] for o in outcomes):.3f}-"
                f"{max(o[2] for o in outcomes):.3f}, feas <= {max(o[3] for o in outcomes):.1e}"
            )
        else:
            lines.append(f"({r},{s}) " + "/".join(o[0] for o in outcomes))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    # the third setting drives both dual pulses down the dual direction at a
    # magnitude this instance family cannot absorb: the constraint residual is
    # amplified each sweep until the iterates overflow (README, limitations)
    _verdict(7, ok, "; ".join(lines) + f"; {elapsed:.0f}s")


# ----- criterion 8: desk-scale sparse recovery vs the gradient baseline ------------------------


def test_criterion_08_desk_scale_lasso_versus_gradient_baseline():
    t0 = time.perf_counter()
    lines = []
    ok = True
    for seed in (1, 2, 3):
        P = make_huber_lasso(128, 512, density=0.5, tau=1e-3, mu=0.1, rng=make_rng(seed))
        params = SolverParams(beta=10.0, alpha=0.5, relaxed_alpha=True)
        result = run(P, _zero_start(P), params)
        ofv = composite_objective(P, result.final.x)
        comp = kkt_residual(P, result.final).composite
        gd = gradient_descent(
            P, np.zeros(P.n1), GdParams(max_iter=max(result.iterations, 1))
        )
        gd_ofv = composite_objective(P, gd.final_x)
        good = (
            result.status is SolveStatus.CONVERGED
            and result.iterations <= 10_000
            and ofv <= gd_ofv
            and comp <= 1e-2
        )
        ok = ok and good
        lines.append(
            f"seed {seed}: {result.status.value} k={result.iterations}, "
            f"ofv {ofv:.3f} vs gd {gd_ofv:.3f}, composite kkt {comp:.2f}"
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 180.0
    # on this data scale ||w|| ~ 43 masks absolute steps, so the relative-step
    # test alone would fire at k ~ 131 with composite kkt ~ 1.4; Converged also
    # requires the first-order residual to be within tol_kkt = 1e-2, which
    # holds from k ~ 207-210, past the crossover with the baseline
    _verdict(8, ok, "; ".join(lines) + f"; {elapsed:.0f}s")


# ----- criterion 9: parameter recipes certify positive margins ---------------------------------


def test_criterion_09_parameter_recipes_certify_positive_margins():
    details = []
    ok = True
    for P in (_oracle_problem(), random_quadratic(4, 4, make_rng(90))):
        H_x, H_y = hessian_pair(P, np.zeros(P.n1), np.zeros(P.n2))
        for direction in ("alda", "aldd"):
            params = suggest_params(direction, P)
            bounds = spectral_bounds(P, params, H_x, H_y)
            gamma = compute_gamma(P, params, bounds)
            delta_x, delta_y = compute_deltas(P, params, bounds, gamma)
            signs = params.r > 0 and params.s == 1.0 if direction == "alda" else (
                params.r < 0 and params.s < 0
            )
            good = (
                validate_params(params) == []
                and signs
                and delta_x > 0
                and delta_y > 0
            )
            ok = ok and good
            if P.n1 == 1:
                details.append(
                    f"{direction}: r {params.r:.0f}, s {params.s}, "
                    f"delta_x {delta_x:.3g}, delta_y {delta_y:.3g}"
                )
    _verdict(9, ok, "valid params, advertised signs, positive margins -- " + "; ".join(details))


# ----- criterion 10: sweep determinism ----------------------------------------------------------


def test_criterion_10_sweep_output_is_deterministic(tmp_path, capsys):
    P = random_quadratic(3, 3, make_rng(77))
    problem_file = tmp_path / "problem.json"
    problem_file.write_text(json.dumps(problem_to_json(P)))
    cfg = {
        "schema_version": 1,
        "base": {
            "schema_version": 1,
            "problem": {"type": "quadratic", "file": str(problem_file)},
            "seed": 13,
            "params": {"max_iter": 300},
            "output_dir": str(tmp_path / "out"),
        },
        "rs_grid": [[0.1, 1.0], [-0.1, 1.0], [1.0, -1.0]],
        "alpha_grid": [0.0, 0.5],
        "max_workers": 1,
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))

    def invoke():
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        out_path = capsys.readouterr().out.strip()
        with open(out_path, newline="") as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("tcpu_s")
        return [[v for i, v in enumerate(row) if i != drop] for row in rows]

    first = invoke()
    second = invoke()
    ok = first == second and len(first) == 7
    _verdict(
        10,
        ok,
        f"two invocations of a 6-row sweep agree on all {len(first)} CSV rows "
        "(timing column excluded)",
    )
