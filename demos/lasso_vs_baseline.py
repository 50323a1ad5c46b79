"""Splitting solver vs plain gradient descent on Huber-smoothed sparse recovery.

Both methods start from zero on the same instance. The table tracks the
composite objective f(x) + g(Ax) at matched iteration counts: the splitting
solver pays for its y-block settling early on, overtakes the baseline around
k ~ 200, and keeps improving after the baseline flattens.
"""

import numpy as np

from prsqp import (
    GdParams,
    Iterate,
    SolverParams,
    composite_objective,
    gradient_descent,
    kkt_residual,
    make_huber_lasso,
    make_rng,
    run,
)

MILESTONES = [25, 50, 100, 150, 200, 300, 500]


def main():
    P = make_huber_lasso(96, 384, density=0.5, tau=1e-3, mu=0.1, rng=make_rng(3))
    x0 = np.zeros(P.n1)
    w0 = Iterate(x0, np.zeros(P.n2), np.zeros(P.n2))

    # where the default stop would land on this instance, and where the
    # relative-step test alone would have ended the run
    default_stop = run(P, w0, SolverParams(beta=10.0, alpha=0.5))
    step_only = run(P, w0, SolverParams(beta=10.0, alpha=0.5, tol_kkt=np.inf))

    # tol_step=0-like horizon: run both methods to the last milestone
    horizon = MILESTONES[-1]
    params = SolverParams(beta=10.0, alpha=0.5, max_iter=horizon, tol_step=1e-12)
    result = run(P, w0, params)
    gd = gradient_descent(P, x0, GdParams(max_iter=horizon))

    print(f"huber-lasso m=96 n=384, beta=10, alpha=0.5 vs armijo gradient descent\n")
    print(f"{'k':>5} {'solver ofv':>12} {'baseline ofv':>13} {'solver feas':>12}")
    for k in MILESTONES:
        if k > len(result.trace) or k > len(gd.trace):
            break
        rec = result.trace[k - 1]
        print(f"{k:>5} {rec.ofv:>12.4f} {gd.trace[k - 1].objective:>13.4f} {rec.feas_inf:>12.2e}")

    res = kkt_residual(P, result.final)
    print(
        f"\nafter {result.iterations} iterations: solver ofv "
        f"{composite_objective(P, result.final.x):.4f} vs baseline "
        f"{composite_objective(P, gd.final_x):.4f}, composite kkt {res.composite:.2e}"
    )
    k_stop = default_stop.iterations
    print(
        f"default stop (relative step <= 1e-4, first-order residual <= 1e-2): k={k_stop}, "
        f"ofv {composite_objective(P, default_stop.final.x):.4f} vs baseline "
        f"{gd.trace[k_stop - 1].objective:.4f}, "
        f"composite kkt {kkt_residual(P, default_stop.final).composite:.2e}"
    )
    print(
        f"step test alone: k={step_only.iterations}, composite kkt "
        f"{kkt_residual(P, step_only.final).composite:.2e} -- ||w||_inf on this data scale "
        "masks absolute steps"
    )


if __name__ == "__main__":
    main()
