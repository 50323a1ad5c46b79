"""Print a sha256 digest of each of a fixed set of solver runs and recipes.

Usage::

    python3 tests/trace_digests.py <checkout>

imports prsqp from ``<checkout>/src`` and prints one ``name sha256`` line per
run. A change that leaves the maths alone should print the same lines as its
parent: make a ``git worktree`` of the parent and diff the two outputs (see
README, Reproducibility). A run's digest covers every trace row but its
``elapsed``, the status, the stop reason, the final weights and the bytes of
the final iterate; a recipe's covers every field of the returned params, and
a report's every field of :func:`~prsqp.diagnostics_report` at the default
params, the spectral bounds included; a container's the ``json.dumps`` text
of :func:`~prsqp.problem_to_json` for seeds 0-4, and of the problem that
:func:`~prsqp.problem_from_json` reads back from it.

The BLAS thread variables are set to 1 before numpy loads, so products round
alike from run to run. Only API that stays stable across design changes is
used (``run``, ``SolverParams``, ``suggest_params``, ``diagnostics_report``,
``cli.build_problem``, the builders, ``problem_to_json``,
``problem_from_json``), so the script also runs on older checkouts. pytest
does not collect it.
"""

import hashlib
import json
import os
import sys
from dataclasses import asdict, astuple, replace
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

if len(sys.argv) != 2:
    sys.exit(__doc__)
sys.path.insert(0, str(Path(sys.argv[1]).resolve() / "src"))  # before this directory, which holds toys

import numpy as np  # noqa: E402

from prsqp import (  # noqa: E402
    Iterate,
    SolverParams,
    cli,
    diagnostics_report,
    make_classification,
    make_huber_lasso,
    make_quadratic,
    make_rng,
    problem_from_json,
    problem_to_json,
    random_quadratic,
    run,
    suggest_params,
)
from toys import scalar_problem  # noqa: E402

LASSO_DESK = {"type": "huber_lasso", "m": 128, "n": 512, "density": 0.5, "tau": 1e-3, "mu": 0.1}
CLASSIFICATION = {"type": "classification", "n": 100, "T": 100}


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()


def _zero_start(P):
    return Iterate(np.zeros(P.n1), np.zeros(P.n2), np.zeros(P.n2))


def run_digest(P, w0, params):
    result = run(P, w0, params)
    rows = [astuple(rec)[:-1] for rec in result.trace]  # all but elapsed
    final = result.final.concat().tobytes()
    return _digest(rows, result.status.value, result.stop_reason, result.ell, result.sigma, final)


def _wells(c_f, c_g):
    # t^4 / 4 - c t^2 / 2 in f and in g, concave near zero for c > 0
    well = lambda c: (lambda t: t**4 / 4 - c * t * t / 2, lambda t: t**3 - c * t, lambda t: 3 * t * t - c)
    return scalar_problem(*well(c_f), *well(c_g), a=1.0, lipschitz_g=10.0)


def _w(x, y, lam):
    return Iterate(np.array([x]), np.array([y]), np.array([lam]))


def digests():
    for seed in (1, 2):
        P = cli.build_problem(LASSO_DESK, seed)
        params = SolverParams(beta=10.0, alpha=0.5, relaxed_alpha=True, max_iter=260)
        yield f"lasso_desk-s{seed}-k260", run_digest(P, _zero_start(P), params)
    for seed in (1, 2):
        P = cli.build_problem(CLASSIFICATION, seed)
        params = SolverParams(r=0.1, s=1.0, alpha=0.0, max_iter=700)
        yield f"classification-s{seed}-k700", run_digest(P, _zero_start(P), params)
    # the sweep_regimes grid, row by row as cli.run_sweep seeds it (seed XOR row index)
    rows = [(r, s, alpha) for alpha in (0.0, 0.5) for r, s in ((0.1, 1.0), (-0.1, 1.0), (-0.1, -0.1))]
    for idx, (r, s, alpha) in enumerate(rows):
        P = cli.build_problem(CLASSIFICATION, 3 ^ idx)
        params = SolverParams(r=r, s=s, alpha=alpha, max_iter=1000, tol_step=0.0)
        yield f"sweep_regimes-s3-row{idx}-k1000", run_digest(P, _zero_start(P), params)
    # ell, then sigma, doubles mid-run on the wells
    for name, P, w0, params in (
        ("wells-ell", _wells(3.0, -1.0), _w(3.0, 0.0, 0.0), SolverParams(ell=0.01)),
        ("wells-sigma", _wells(-1.0, 3.0), _w(0.5, 3.0, 0.0), SolverParams(sigma=0.5)),
    ):
        yield name, run_digest(P, w0, replace(params, tol_step=0.0, tol_kkt=0.0, max_iter=60))
    recipe_problems = (
        ("scalar", make_quadratic([1.0], [0.0], [[1.0]])),
        ("quadratic4x4", random_quadratic(4, 4, make_rng(90))),
        ("classification20x20", cli.build_problem({"type": "classification", "n": 20, "T": 20}, 1)),
        ("lasso16x64", cli.build_problem({"type": "huber_lasso", "m": 16, "n": 64}, 1)),
    )
    for name, P in recipe_problems:
        for direction in ("alda", "aldd"):
            yield f"suggest_params-{direction}-{name}", _digest(astuple(suggest_params(direction, P)))
    report_problems = (
        ("lasso_desk-s1", cli.build_problem(LASSO_DESK, 1)),
        ("classification-s1", cli.build_problem(CLASSIFICATION, 1)),
        ("quadratic6x4", random_quadratic(6, 4, make_rng(0))),
    )
    for name, P in report_problems:
        yield f"diagnostics_report-{name}", _digest(asdict(diagnostics_report(P, SolverParams())))
    containers = (
        ("quadratic4x3", lambda rng: random_quadratic(3, 4, rng)),
        ("classification6x5", lambda rng: make_classification(6, 5, rng=rng)),
        ("lasso4x9", lambda rng: make_huber_lasso(4, 9, rng=rng)),
    )
    for name, build in containers:
        texts = [json.dumps(problem_to_json(build(make_rng(seed)))) for seed in range(5)]
        yield f"problem_to_json-{name}-s0-4", _digest(*texts)
        back = [json.dumps(problem_to_json(problem_from_json(json.loads(text)))) for text in texts]
        yield f"problem_from_json-{name}-s0-4", _digest(*back)


if __name__ == "__main__":
    for name, digest in digests():
        print(name, digest, flush=True)
