"""Print a sha256 digest of each of a fixed set of solver runs and recipes.

Usage::

    python3 tests/trace_digests.py <checkout>
    python3 tests/trace_digests.py --against <rev>

The first form imports prsqp from ``<checkout>/src`` and prints one
``name sha256`` line per run. A change that leaves the maths alone should
print the same lines as its parent, and the second form checks that: it adds
a temporary ``git worktree`` of ``<rev>``, runs this script on it and on the
checkout that holds this script, each in its own subprocess, prints the
``diff`` of the two outputs and exits 1 on any difference; the worktree is
removed whatever the outcome (see README, Reproducibility).

A run's digest covers every trace row but its ``elapsed``, the status, the
stop reason, the final weights and the bytes of the final iterate; a
recipe's covers the returned params' fields named in ``RECIPE_FIELDS``, and a
report's every field of :func:`~prsqp.diagnostics_report` at the default
params, the spectral bounds included; a container's the ``json.dumps`` text of
:func:`~prsqp.problem_to_json` for seeds 0-4, and of the problem that
:func:`~prsqp.problem_from_json` reads back from it. An ``internals-`` line
covers the first 60 iteration outcomes that ``run`` hands its ``callback``:
each entry of ``internals`` in sorted key order (an array's bytes, a float's
repr) and every field of ``kkt``. A ``normal_sample-<n>`` line is the
sha256 of the bytes of :func:`~prsqp.normal_sample` of ``n`` variates at
seed 1.

The ``cli-`` lines run ``prsqp.cli.main`` in a temporary directory: the
files and output of ``solve`` (``trace.csv`` without ``elapsed_ms``,
``summary.json`` without ``tcpu_s``), of ``solve`` with the baseline
(``baseline_trace.csv`` without ``elapsed_ms``, the summary's ``baseline``
without ``tcpu_s``), of a two-row ``sweep`` (``sweep.csv``
without ``tcpu_s``), of ``check-params`` and of ``gen-data``; and, for each
of a fixed list of malformed configurations and of paths that cannot be read
or written, the exit code, the number of files written and a digest of
stderr, in which the directory reads ``<tmp>``.

The BLAS thread variables are set to 1 before numpy loads, so products round
alike from run to run. Only API that stays stable across design changes is
used (``run`` and its ``callback``, ``SolverParams``, ``suggest_params``,
``diagnostics_report``, ``cli.build_problem``, ``cli.main``, the builders,
``normal_sample``, ``problem_to_json``, ``problem_from_json``), so the script also runs on older
checkouts. pytest does not collect it.
"""

import contextlib
import csv
import difflib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import asdict, astuple, replace
from pathlib import Path


def _against(rev):
    # the diff of this script's output on a temporary worktree of rev and on
    # this checkout, each run in a subprocess; 0 when they agree, else 1
    root = Path(__file__).resolve().parents[1]
    git = ["git", "-C", str(root), "worktree"]
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "rev"
        subprocess.run([*git, "add", "--detach", "--quiet", str(tree), rev], check=True)
        try:
            outputs = [
                subprocess.run([sys.executable, __file__, str(checkout)], check=True, stdout=subprocess.PIPE, text=True)
                .stdout.splitlines(keepends=True)
                for checkout in (tree, root)
            ]
        finally:
            subprocess.run([*git, "remove", "--force", str(tree)], check=True)
    diff = list(difflib.unified_diff(*outputs, fromfile=rev, tofile=str(root)))
    sys.stdout.writelines(diff)
    print(f"{rev}: {len(outputs[0])} lines; {root}: {len(outputs[1])} lines; " + ("differ" if diff else "identical"))
    return 1 if diff else 0


if len(sys.argv) == 3 and sys.argv[1] == "--against":
    sys.exit(_against(sys.argv[2]))
if len(sys.argv) != 2:
    sys.exit(__doc__)

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
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
    normal_sample,
    problem_from_json,
    problem_to_json,
    random_quadratic,
    run,
    suggest_params,
)
from toys import scalar_problem  # noqa: E402

LASSO_DESK = {"type": "huber_lasso", "m": 128, "n": 512, "density": 0.5, "tau": 1e-3, "mu": 0.1}
# the params fields a recipe line digests, named, so that a checkout whose
# SolverParams still has max_backtracks, rho or nu prints the same line
RECIPE_FIELDS = "alpha beta ell sigma r s max_iter tol_step tol_kkt relaxed_alpha".split()
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


def internals_digest(P, params, iterations=60):
    parts = []

    def record(out):
        for _, value in sorted(out.internals.items()):
            parts.append(value.tobytes() if isinstance(value, np.ndarray) else value)
        parts.append(astuple(out.kkt))

    run(P, _zero_start(P), replace(params, max_iter=iterations), callback=record)
    return _digest(*parts)


def _wells(c_f, c_g, lipschitz_f=None):
    # t^4 / 4 - c t^2 / 2 in f and in g, concave near zero for c > 0
    well = lambda c: (lambda t: t**4 / 4 - c * t * t / 2, lambda t: t**3 - c * t, lambda t: 3 * t * t - c)
    return scalar_problem(*well(c_f), *well(c_g), a=1.0, lipschitz_f=lipschitz_f, lipschitz_g=10.0)


def _w(x, y, lam):
    return Iterate(np.array([x]), np.array([y]), np.array([lam]))


def digests():
    for n in (1, 7, 10_000, 65_536, 1_048_576):
        yield f"normal_sample-{n}", hashlib.sha256(normal_sample(make_rng(1), n).tobytes()).hexdigest()
    for seed in (1, 2):
        P = cli.build_problem(LASSO_DESK, seed)
        params = SolverParams(beta=10.0, alpha=0.5, relaxed_alpha=True, max_iter=260)
        yield f"lasso_desk-s{seed}-k260", run_digest(P, _zero_start(P), params)
    for seed in (1, 2):
        P = cli.build_problem(CLASSIFICATION, seed)
        params = SolverParams(r=0.1, s=1.0, alpha=0.0, max_iter=700)
        yield f"classification-s{seed}-k700", run_digest(P, _zero_start(P), params)
    for name, problem, params in (
        ("lasso_desk", LASSO_DESK, SolverParams(beta=10.0, alpha=0.5, relaxed_alpha=True)),
        ("classification", CLASSIFICATION, SolverParams(r=0.1, s=1.0, alpha=0.0)),
    ):
        yield f"internals-{name}-s1-k60", internals_digest(cli.build_problem(problem, 1), params)
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
        ("wells", _wells(2.0, 0.5, lipschitz_f=10.0)),  # nonconvex at zero: aldd raises ell
    )
    for name, P in recipe_problems:
        for direction in ("alda", "aldd"):
            params = suggest_params(direction, P)
            yield f"suggest_params-{direction}-{name}", _digest([getattr(params, f) for f in RECIPE_FIELDS])
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


def _main(tmp, *argv):
    # cli.main's exit code, stdout and stderr, with the directory written as <tmp>
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(arg) for arg in argv])
    return code, out.getvalue().replace(str(tmp), "<tmp>"), err.getvalue().replace(str(tmp), "<tmp>")


def _write_json(path, obj):
    # bytes are written as they are
    path.write_bytes(obj if isinstance(obj, bytes) else json.dumps(obj).encode())
    return path


def _csv_without(path, column):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index(column)
    return [row[:drop] + row[drop + 1 :] for row in rows]


SMALL_CLASSIFICATION = {"type": "classification", "n": 20, "T": 20}
BIG = 10**400  # a JSON integer that no float holds


def _config(tmp, problem=SMALL_CLASSIFICATION, **extra):
    return {"schema_version": 1, "problem": problem, "seed": 1, "output_dir": str(tmp / "out"), **extra}


def _sweep(tmp, **extra):
    base = _config(tmp, params={"max_iter": 100})
    return {"schema_version": 1, "base": base, "rs_grid": [[0.1, 1.0], [-0.1, 1.0]], "max_workers": 1, **extra}


def _container(tmp, build, **changed):
    return _write_json(tmp / "problem.json", {**problem_to_json(build(make_rng(5))), **changed})


def _malformed(tmp):
    # (name, subcommand, config); a problem file a case needs is written when the case is reached
    quadratic = lambda rng: random_quadratic(3, 2, rng)
    lasso = lambda rng: make_huber_lasso(4, 9, rng=rng)
    cls = lambda rng: make_classification(5, 4, rng=rng)
    from_file = lambda path: _config(tmp, problem={"type": "quadratic", "file": str(path)})
    yield "solve-problem-mu-past-float", "solve", _config(tmp, problem={**SMALL_CLASSIFICATION, "mu": BIG})
    yield "solve-params-r-past-float", "solve", _config(tmp, params={"r": BIG})
    yield "solve-params-beta-past-float", "solve", _config(tmp, params={"beta": BIG})
    yield "solve-params-beta-string", "solve", _config(tmp, params={"beta": "10"})
    yield "solve-params-max_backtracks", "solve", _config(tmp, params={"max_iter": 10, "max_backtracks": 60})
    yield "solve-file-c_f-past-float", "solve", from_file(_container(tmp, quadratic, c_f=[BIG, 0.0, 0.0]))
    yield "sweep-rs_grid-past-float", "sweep", _sweep(tmp, rs_grid=[[BIG, 1.0]])
    yield "check-params-beta-1e300", "check-params", _config(tmp, params={"beta": 1e300})
    yield "solve-file-lasso-density-5", "solve", from_file(_container(tmp, lasso, density=5.0))
    tall = {"rows": 6, "cols": 3, "data": [float(v) for v in range(1, 19)]}
    yield "solve-file-lasso-tall-A", "solve", from_file(_container(tmp, lasso, A=tall, u=[1.0, 0.0, -1.0]))
    no_samples = {"rows": 5, "cols": 0, "data": []}
    yield "solve-file-classification-T0", "solve", from_file(_container(tmp, cls, D=no_samples, labels=[]))
    no_rows = {"rows": 0, "cols": 3, "data": []}
    yield "solve-file-quadratic-A-0-rows", "solve", from_file(_container(tmp, quadratic, c_g=[], A=no_rows))
    yield "solve-not-an-object", "solve", [1]
    yield "solve-not-utf-8", "solve", b'{"seed": "\xff"}'
    yield "solve-integer-of-5000-digits", "solve", b"[" + b"1" * 5000 + b"]"
    yield "solve-schema-version-2", "solve", _config(tmp, schema_version=2)
    yield "solve-schema-version-true", "solve", _config(tmp, schema_version=True)
    yield "solve-missing-output_dir", "solve", {k: v for k, v in _config(tmp).items() if k != "output_dir"}
    yield "solve-unknown-key", "solve", _config(tmp, colour=1)
    yield "solve-params-not-an-object", "solve", _config(tmp, params=[1])
    yield "solve-problem-without-type", "solve", _config(tmp, problem={"n": 20})
    yield "solve-params-rho-1.5", "solve", _config(tmp, params={"rho": 1.5})  # rho is a constant, no key
    yield "solve-classification-n-1", "solve", _config(tmp, problem={**SMALL_CLASSIFICATION, "n": 1})
    yield "solve-missing-file", "solve", from_file(tmp / "missing.json")
    yield "sweep-not-an-object", "sweep", "sweep"
    yield "sweep-missing-rs_grid", "sweep", {k: v for k, v in _sweep(tmp).items() if k != "rs_grid"}
    yield "sweep-empty-rs_grid", "sweep", _sweep(tmp, rs_grid=[])
    yield "sweep-rs_grid-bool", "sweep", _sweep(tmp, rs_grid=[[True, 1.0]])


def _path_cases(tmp):
    # (name, argv) of commands given a path that cannot be read or written
    blocked = str(_write_json(tmp / "regular", {}) / "out")  # under a regular file
    solve = _config(tmp, params={"max_iter": 10}, output_dir=blocked)
    yield "solve-output_dir-under-a-file", ("solve", "--config", _write_json(tmp / "bad.json", solve))
    sweep = _sweep(tmp, base=_config(tmp, params={"max_iter": 10}, output_dir=blocked))
    yield "sweep-output_dir-under-a-file", ("sweep", "--config", _write_json(tmp / "bad.json", sweep))
    yield "solve-config-a-directory", ("solve", "--config", tmp)
    missing = tmp / "missing" / "q.json"
    yield "gen-data-out-in-a-missing-directory", ("gen-data", "--problem", "quadratic", "--seed", 1, "--out", missing)


def cli_digests():
    with tempfile.TemporaryDirectory() as name:
        tmp, out = Path(name), Path(name) / "out"
        config = _write_json(tmp / "c.json", _config(tmp, params={"max_iter": 300}))
        code, _, err = _main(tmp, "solve", "--config", config)
        summary = json.loads((out / "summary.json").read_text())
        summary.pop("tcpu_s")
        trace = _csv_without(out / "trace.csv", "elapsed_ms")
        yield "cli-solve-classification20x20-k300", _digest(code, err, trace, sorted(summary.items()))
        # on the LASSO the baseline backtracks, so its step rule enters the digest
        lasso = {"type": "huber_lasso", "m": 16, "n": 64}
        with_baseline = _write_json(tmp / "b.json", _config(tmp, lasso, params={"max_iter": 300}, baseline=True))
        code, _, err = _main(tmp, "solve", "--config", with_baseline)
        baseline = json.loads((out / "summary.json").read_text())["baseline"]
        baseline.pop("tcpu_s")
        trace = _csv_without(out / "baseline_trace.csv", "elapsed_ms")
        yield "cli-solve-baseline-lasso16x64-k300", _digest(code, err, trace, sorted(baseline.items()))
        code, stdout, err = _main(tmp, "sweep", "--config", _write_json(tmp / "s.json", _sweep(tmp)))
        yield "cli-sweep-2rows-k100", _digest(code, stdout, err, _csv_without(out / "sweep.csv", "tcpu_s"))
        yield "cli-check-params-classification20x20", _digest(*_main(tmp, "check-params", "--config", config))
        gen = ("gen-data", "--problem", "huber_lasso", "--m", 8, "--n", 16, "--seed", 2, "--out", tmp / "gen.json")
        yield "cli-gen-data-lasso8x16-s2", _digest(*_main(tmp, *gen), (tmp / "gen.json").read_text())
        shutil.rmtree(out)
        for case, command, config in _malformed(tmp):
            code, _, err = _main(tmp, command, "--config", _write_json(tmp / "bad.json", config))
            written = len(list(out.rglob("*"))) if out.exists() else 0
            shutil.rmtree(out, ignore_errors=True)
            yield f"cli-error-{case}", f"exit={code} written={written} {_digest(err)}"
        for case, argv in _path_cases(tmp):
            before = set(tmp.rglob("*"))
            code, _, err = _main(tmp, *argv)
            written = len(set(tmp.rglob("*")) - before)
            yield f"cli-error-{case}", f"exit={code} written={written} {_digest(err)}"


if __name__ == "__main__":
    for name, digest in (*digests(), *cli_digests()):
        print(name, digest, flush=True)
