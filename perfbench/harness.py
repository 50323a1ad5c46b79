"""Workloads, timed measurement and correctness gates of the prsqp benchmark.

Every workload drives prsqp through its public entry points: instances come
from ``cli.build_problem`` (the path behind ``prsqp solve``), solves from
``solver.run`` and sweeps from ``cli.run_sweep``.

* :func:`measure` with ``trace=False`` gives the end-to-end metrics, with the
  program untouched.
* :func:`measure` with ``trace=True`` gives the per-layer metrics from spans
  recorded by :mod:`tracer`, plus the tracing overhead against untraced
  repeats of the same operation.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from prsqp import cli, solver
from prsqp.alf import Iterate
from prsqp.diagnostics import kkt_residual
from prsqp.problems import composite_objective

from tracer import INSTANCE_CALLABLES, SpanTable, Tracer

KKT_TOL = 1e-2  # the stated accuracy: sup-norm first-order residual kkt_inf
# setup_s builds these instances of the workload's family in every run, whatever
# --seed says: build time varies several-fold between instances with the
# power-iteration count, so seeded instances would make setup_s measure the draw.
SETUP_SEEDS = (0, 1, 2, 3)
SETUP_SHARE = 1 / 3  # builds for setup_s take at most this share of the timed work
SETUP_ROUNDS = 2  # and at least this many builds of each setup seed per process
MIN_REPEATS = 3  # timed repeats of an operation, whatever --seconds says
clock = time.perf_counter


@dataclass(frozen=True)
class SolveWorkload:
    """Solve seeded instances from zero to the first iterate with ``kkt_inf <= KKT_TOL``.

    Instance 0 is built from the run's seed; the others from seeds drawn from
    it, so a run averages over ``instances`` draws of the problem family.
    """

    name: str
    problem: dict
    params: dict
    instances: int
    max_iter: int = 5000  # cap of the search for the first accurate iterate


@dataclass(frozen=True)
class SweepWorkload:
    """One ``cli.run_sweep`` over an (r, s) x alpha grid with a fixed iteration budget."""

    name: str
    problem: dict
    params: dict
    rs_grid: tuple
    alpha_grid: tuple


WORKLOADS = {
    w.name: w
    for w in (
        SolveWorkload(
            name="lasso_desk",
            problem={"type": "huber_lasso", "m": 128, "n": 512, "density": 0.5, "tau": 1e-3, "mu": 0.1},
            params={"beta": 10.0, "alpha": 0.5, "relaxed_alpha": True},
            instances=2,
        ),
        SolveWorkload(
            name="classification",
            problem={"type": "classification", "n": 100, "T": 100},
            params={"r": 0.1, "s": 1.0, "alpha": 0.0},
            instances=12,
        ),
        SweepWorkload(
            name="sweep_regimes",
            problem={"type": "classification", "n": 100, "T": 100},
            params={"max_iter": 1000, "tol_step": 0.0},
            rs_grid=((0.1, 1.0), (-0.1, 1.0), (-0.1, -0.1)),
            alpha_grid=(0.0, 0.5),
        ),
    )
}


def workers():
    return len(os.sched_getaffinity(0))


def environment(seed):
    """Machine, library and thread settings that the figures depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return {
        "seed": seed,
        "nproc": workers(),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Ledger:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, what, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")
        return not problems


def peak_rss_mb(children=False):
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        rss = max(rss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return rss / 1024.0  # ru_maxrss is in KiB on Linux


def timing(values):
    """A timing summary: median and sample count."""
    return {"median": statistics.median(values), "n": len(values)}


# ----- solve workloads --------------------------------------------------------------


def instance_seeds(seed, n):
    drawn = np.random.SeedSequence(seed).generate_state(n - 1) if n > 1 else []
    return [seed] + [int(s) for s in drawn]


def zero_start(P):
    return Iterate(np.zeros(P.n1), np.zeros(P.n2), np.zeros(P.n2))


class _Reached(Exception):
    pass


def first_accurate_iterate(P, wl):
    """0-based index of the first iterate with ``kkt_inf <= KKT_TOL``, or None within the cap."""
    params = solver.SolverParams(**wl.params, max_iter=wl.max_iter, tol_step=0.0)

    def stop(out):
        if out.record.kkt_inf <= KKT_TOL:
            raise _Reached(out.record.k)

    try:
        solver.run(P, zero_start(P), params, callback=stop)
    except _Reached as hit:
        return hit.args[0]
    return None


def unreached(k, wl):
    return [] if k is not None else [f"kkt_inf > {KKT_TOL} after {wl.max_iter} iterations"]


def timed_solve(P, wl, k):
    """Solve that stops at iterate ``k`` and no earlier; returns (seconds, result)."""
    params = solver.SolverParams(**wl.params, max_iter=k + 1, tol_step=0.0)
    w0 = zero_start(P)
    t0 = clock()
    result = solver.run(P, w0, params)
    return clock() - t0, result


def solve_gate(P, result, k):
    """What is wrong with one solve to iterate ``k`` (empty when it is correct)."""
    problems = []
    if result.iterations != k + 1:
        problems.append(f"ran {result.iterations} iterations, the search found {k + 1}")
    kkt = kkt_residual(P, result.final).total
    if not kkt <= KKT_TOL:
        problems.append(f"final kkt residual {kkt!r} above {KKT_TOL}")
    if not math.isfinite(composite_objective(P, result.final.x)):
        problems.append("composite objective is not finite")
    return problems


class SetupTimes:
    """Build times of the SETUP_SEEDS instances, interleaved with the timed work.

    Host speed drifts over tens of seconds, so builds timed in one block at the
    start of a run would measure the host at that moment; spread over the run,
    they see the same host as the other figures.
    """

    def __init__(self, problem):
        self.problem = problem
        self.times = {s: [] for s in SETUP_SEEDS}
        self.spent = 0.0

    def build(self):
        s = min(self.times, key=lambda s: len(self.times[s]))
        t0 = clock()
        cli.build_problem(self.problem, s)
        dt = clock() - t0
        self.times[s].append(dt)
        self.spent += dt

    def keep_up(self, work_s):
        """Build until the builds take SETUP_SHARE of ``work_s`` seconds of timed work."""
        while self.spent < SETUP_SHARE * work_s:
            self.build()

    def top_up(self):
        while min(len(v) for v in self.times.values()) < SETUP_ROUNDS:
            self.build()


def setup_figures(parts):
    """``setup_s`` (mean over the setup seeds of each one's median build time) and its sample count."""
    times = {s: [t for part in parts for t in part[s]] for s in SETUP_SEEDS}
    return statistics.fmean(statistics.median(v) for v in times.values()), sum(map(len, times.values()))


def solve_share(wl, seeds, seconds):
    """Build, search and time one worker's share of a solve workload.

    Each instance is timed as soon as it is built and searched, then all are
    timed round-robin until the timed solves add up to ``seconds``. Host speed
    drifts over tens of seconds, so the samples spread over the whole run, and
    so do the builds of the setup instances. ``busy`` is the time spent in
    ``solver.run``, searches included, and in those builds.
    """
    ledger = Ledger()
    setup = SetupTimes(wl.problem)
    instances, targets, times = {}, {}, {}
    spent = busy = 0.0

    def sample(s):
        nonlocal spent
        dt, result = timed_solve(instances[s], wl, targets[s])
        spent += dt
        if ledger.check(f"instance seed {s} solve", solve_gate(instances[s], result, targets[s])):
            times[s].append(dt)
        setup.keep_up(spent)

    for s in seeds:
        instances[s] = cli.build_problem(wl.problem, s)
        t0 = clock()
        targets[s] = first_accurate_iterate(instances[s], wl)
        busy += clock() - t0
        if ledger.check(f"instance seed {s}", unreached(targets[s], wl)):
            times[s] = []
            sample(s)
    todo, n = list(times), 0
    while todo and (spent < seconds or len(todo) + n < MIN_REPEATS):
        sample(todo[n % len(todo)])
        n += 1
    setup.top_up()
    iterations = {s: targets[s] + 1 for s in times}
    return {"times": times, "iterations": iterations, "busy": busy + spent + setup.spent, "setup": setup.times,
            "attempted": ledger.attempted, "failures": ledger.failures}


def measure_solves(wl, seed, seconds, ledger):
    # A batch of instances is shared out over nproc worker processes, as a user
    # would run it; with one core busy and one idle, timings on a shared host
    # drift more.
    seeds = instance_seeds(seed, wl.instances)
    n = min(workers(), wl.instances)
    spawn = multiprocessing.get_context("spawn")
    t0 = clock()
    with concurrent.futures.ProcessPoolExecutor(max_workers=n, mp_context=spawn) as pool:
        parts = list(pool.map(solve_share, [wl] * n, [seeds[w::n] for w in range(n)], [seconds] * n))
    wall = clock() - t0
    times, iterations = {}, {}
    for part in parts:
        times.update(part["times"])
        iterations.update(part["iterations"])
        ledger.attempted += part["attempted"]
        ledger.failures += part["failures"]
    medians = {s: statistics.median(v) for s, v in times.items() if v}
    iters = sum(iterations[s] for s in medians)
    if not iters:
        return None
    setup_s, builds = setup_figures([part["setup"] for part in parts])
    return {
        "metrics": {
            "setup_s": setup_s,
            "ms_per_iter": 1000.0 * sum(medians.values()) / iters,
            "peak_rss_mb": peak_rss_mb(children=True),
        },
        "detail": {
            "setup_s": {"mean_of_seed_medians": setup_s, "n": builds},
            "time_to_kkt_s": {
                "mean_of_instance_medians": statistics.fmean(medians.values()),
                "instances": len(medians),
                "n": sum(len(v) for v in times.values()),
            },
            "iterations_to_kkt": [iterations[s] for s in seeds if s in medians],
            "workers": n,
            "pool_efficiency": sum(part["busy"] for part in parts) / (wall * n),
        },
    }


def layer_metrics(table, results, builds):
    """Per-layer figures of one traced operation; ``results`` are its SolveResults."""
    iters = sum(r.iterations for r in results)

    def in_run(name, what="calls"):
        return getattr(table, what).get(("solver.run", name), 0)

    def per_iter(value, scale=1.0):
        return scale * value / iters

    eigen = sum(table.total.get(("cli.build_problem", f"core.{f}"), 0.0) for f in ("max_eigenvalue", "min_eigenvalue"))
    build_time = table.total.get((None, "cli.build_problem"), 0.0)
    out = {
        "core.cholesky_spd.calls_per_iter": per_iter(in_run("core.cholesky_spd")),
        "core.cholesky_spd.ms_per_iter": per_iter(in_run("core.cholesky_spd", "total"), 1e3),
        "core.cholesky_spd.failures": in_run("core.cholesky_spd", "raised"),
        "core.spectral_norm.calls_per_iter": per_iter(in_run("core.spectral_norm")),
        "core.spectral_norm.ms_per_iter": per_iter(in_run("core.spectral_norm", "total"), 1e3),
        "core.eigen.setup_ms": 1e3 * eigen / builds,
    }
    for f in ("eval_f", "eval_g", "grad_f", "hess_f_at", "apply_A"):
        out[f"problems.{f}.calls_per_iter"] = per_iter(in_run(f"problems.{f}"))
    out["problems.evals.ms_per_iter"] = per_iter(
        sum(in_run(f"problems.{f}", "total") for f in INSTANCE_CALLABLES), 1e3
    )
    out.update(
        {
            "alf.eval_alf.calls_per_iter": per_iter(in_run("alf.eval_alf")),
            "alf.grad_alf.calls_per_iter": per_iter(in_run("alf.grad_alf")),
            "solver.line_search.ms_per_iter": per_iter(in_run("solver.line_search", "total"), 1e3),
            "solver.backtracks_per_iter": per_iter(
                sum(rec.backtracks_x + rec.backtracks_y for r in results for rec in r.trace)
            ),
            "solver.line_search.accept_ratio": table.line_search_accepts / max(table.line_search_trials, 1),
            "solver.iterate_once.self_ms_per_iter": per_iter(in_run("solver.iterate_once", "self_time"), 1e3),
            "solver.run.self_ms_per_iter": per_iter(table.self_time.get((None, "solver.run"), 0.0), 1e3),
            "solver.iters_to_kkt": sum(
                next((rec.k for rec in r.trace if rec.kkt_inf <= KKT_TOL), r.iterations) for r in results
            ),
            "diagnostics.kkt_residual.calls_per_iter": per_iter(in_run("diagnostics.kkt_residual")),
            "diagnostics.kkt_residual.ms_per_iter": per_iter(in_run("diagnostics.kkt_residual", "total"), 1e3),
            "cli.build_problem.ms_per_row": 1e3 * build_time / builds,
        }
    )
    return out


# Per-layer figures that count work; they must repeat exactly.
COUNTS = (
    "calls_per_iter",
    "failures",
    "backtracks_per_iter",
    "accept_ratio",
    "iters_to_kkt",
)


def drift(first, other):
    """Count metrics that differ between two traced repeats of one operation."""
    return [
        f"{name} {first[name]!r} != {other[name]!r}"
        for name in first
        if name.endswith(COUNTS) and first[name] != other[name]
    ]


def merge_repeats(figures, ledger):
    """Counts from the first traced repeat, times as medians over the repeats."""
    for j, other in enumerate(figures[1:], start=1):
        ledger.check(f"traced repeat {j} counts", drift(figures[0], other))
    return {
        name: value if name.endswith(COUNTS) else statistics.median(f[name] for f in figures)
        for name, value in figures[0].items()
    }


def trace_solves(wl, seed, seconds, ledger, tracer):
    """Traced repeats of instance 0, then the untraced pool of ``measure_solves``.

    Each traced repeat builds the instance and solves it, so the build figures
    are medians over repeats like the others. The pool gives ``cli.pool_efficiency``.
    """
    P = cli.build_problem(wl.problem, seed)
    k = first_accurate_iterate(P, wl)
    if not ledger.check(f"instance 0 (seed {seed})", unreached(k, wl)):
        return None
    plain, traced, figures, kept = [], [], [], []
    start, j = clock(), 0
    while j < MIN_REPEATS or clock() - start < seconds / 2:
        dt, result = timed_solve(P, wl, k)
        if ledger.check(f"untraced solve {j}", solve_gate(P, result, k)):
            plain.append(dt)
        with tracer.active(op=f"repeat-{j}"):
            built = cli.build_problem(wl.problem, seed)  # the tracer wraps its callables
            dt, result = timed_solve(built, wl, k)
        spans, results = tracer.take()
        if ledger.check(f"traced solve {j}", solve_gate(built, result, k)):
            traced.append(dt)
            figures.append(layer_metrics(SpanTable(spans), results, builds=1))
        if j == 0:
            kept = spans
        j += 1
    pool = measure_solves(wl, seed, seconds / 2, ledger)
    if not figures or not plain or pool is None:
        return None
    metrics = merge_repeats(figures, ledger)
    metrics["cli.row_solve_s"] = statistics.median(plain)
    metrics["cli.pool_efficiency"] = pool["detail"]["pool_efficiency"]
    metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1.0
    detail = {
        "untraced_solve_s": timing(plain),
        "traced_solve_s": timing(traced),
        "iterations_to_kkt": [k + 1],
        "pool_workers": pool["detail"]["workers"],
    }
    return {"metrics": metrics, "detail": detail, "spans": kept}


# ----- sweep workload -----------------------------------------------------------------


def sweep_config(wl, seed, max_workers):
    base = cli.ExperimentConfig(
        problem=dict(wl.problem),
        seed=seed,
        params=solver.SolverParams(**wl.params),
        output_dir=os.devnull,  # run_sweep writes nothing; write_sweep is not called
    )
    return cli.SweepConfig(
        base=base,
        rs_grid=list(wl.rs_grid),
        alpha_grid=list(wl.alpha_grid),
        max_workers=max_workers,
    )


def grid(wl):
    return [(r, s, a) for a in wl.alpha_grid for r, s in wl.rs_grid]


def sweep_gate(wl, rows):
    problems = []
    got = [(row["r"], row["s"], row["alpha"]) for row in rows]
    if got != grid(wl):
        problems.append(f"rows {got} are not the grid {grid(wl)} in order")
    bad = [i for i, row in enumerate(rows) if not (math.isfinite(row["tcpu_s"]) and row["tcpu_s"] > 0.0)]
    if bad:
        problems.append(f"rows {bad} have no finite tcpu_s")
    return problems


def outcome(rows):
    """Per-row iterations and status: a diverging descent row is a result, not a failure."""
    return [(row["iter"], row["status"]) for row in rows]


def run_sweeps(cfg, wl, seconds, repeats, ledger, reference=None, setup=None):
    """Repeat ``cli.run_sweep`` for ``seconds`` of sweeps and at least ``repeats`` times.

    Every sweep must reproduce the row outcomes of the first (or of ``reference``).
    With ``setup``, setup builds run between the sweeps.
    """
    walls, per_iter, row_s, efficiency, rows = [], [], [], [], []
    swept, j = 0.0, 0
    while j < repeats or swept < seconds:
        t0 = clock()
        rows = cli.run_sweep(cfg)
        wall = clock() - t0
        swept += wall
        if setup:
            setup.keep_up(swept)
        reference = reference or outcome(rows)
        problems = sweep_gate(wl, rows)
        if outcome(rows) != reference:
            problems.append(f"row outcomes {outcome(rows)} differ from {reference}")
        if ledger.check(f"sweep {j} ({cfg.max_workers} workers)", problems):
            walls.append(wall)
            cpu = sum(row["tcpu_s"] for row in rows)
            per_iter.append(1000.0 * cpu / max(sum(row["iter"] for row in rows), 1))
            row_s.extend(row["tcpu_s"] for row in rows)
            efficiency.append(cpu / (wall * cfg.max_workers))
        j += 1
    return {"walls": walls, "ms_per_iter": per_iter, "row_s": row_s, "efficiency": efficiency,
            "reference": reference, "statuses": dict(Counter(row["status"] for row in rows))}


def measure_sweep(wl, seed, seconds, ledger):
    cfg = sweep_config(wl, seed, workers())
    setup = SetupTimes(wl.problem)  # the instance family that every row builds
    pool = run_sweeps(cfg, wl, seconds, MIN_REPEATS, ledger, setup=setup)
    setup.top_up()
    walls, rows = pool["walls"], len(grid(wl))
    if not walls:
        return None
    setup_s, builds = setup_figures([setup.times])
    return {
        "metrics": {
            "setup_s": setup_s,
            "ms_per_iter": statistics.median(pool["ms_per_iter"]),
            "peak_rss_mb": peak_rss_mb(children=True),
        },
        "detail": {
            "setup_s": {"mean_of_seed_medians": setup_s, "n": builds},
            "sweep_wall_s": timing(walls),
            "rows_per_s": rows / statistics.median(walls),
            "workers": cfg.max_workers,
            "row_outcomes": pool["reference"],
            "row_statuses": pool["statuses"],
        },
    }


def trace_sweep(wl, seed, seconds, ledger, tracer):
    cfg = sweep_config(wl, seed, workers())
    serial = replace(cfg, max_workers=1)  # rows run in this process, where the tracer is
    plain = run_sweeps(serial, wl, 0, 1, ledger)
    reference = plain["reference"]
    traced, figures, kept = [], [], []
    start, j = clock(), 0
    while j < 2 or clock() - start < seconds / 2:
        with tracer.active(op=f"sweep-{j}"):
            t0 = clock()
            rows = cli.run_sweep(serial)
            wall = clock() - t0
        spans, results = tracer.take()
        problems = sweep_gate(wl, rows)
        if outcome(rows) != reference:
            problems.append(f"row outcomes {outcome(rows)} differ from {reference}")
        if ledger.check(f"traced sweep {j}", problems):
            traced.append(wall)
            figures.append(layer_metrics(SpanTable(spans), results, builds=len(rows)))
        if j == 0:
            kept = spans
        j += 1
    pool = run_sweeps(cfg, wl, seconds / 2, 1, ledger, reference)
    if not figures or not plain["walls"] or not pool["walls"]:
        return None
    metrics = merge_repeats(figures, ledger)
    metrics["cli.row_solve_s"] = statistics.median(pool["row_s"])
    metrics["cli.pool_efficiency"] = statistics.median(pool["efficiency"])
    metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain["walls"]) - 1.0
    detail = {
        "serial_sweep_s": timing(plain["walls"]),
        "traced_serial_sweep_s": timing(traced),
        "pool_sweep_s": timing(pool["walls"]),
        "workers": cfg.max_workers,
        "row_outcomes": reference,
        "row_statuses": pool["statuses"],
    }
    return {"metrics": metrics, "detail": detail, "spans": kept}


# ----- entry ---------------------------------------------------------------------------


def check_counts(path, metrics, ledger):
    """Count figures must repeat across runs of the same code, workload and seed.

    The first correct traced run writes them to ``path``; later runs compare.
    """
    counts = {name: value for name, value in metrics.items() if name.endswith(COUNTS)}
    if path.exists():
        previous = json.loads(path.read_text(encoding="utf-8"))
        ledger.check(f"counts against the earlier run in {path.name}", drift(previous, counts))
    elif not ledger.failures:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts), encoding="utf-8")


def measure(wl, seed, seconds, trace, counts_path):
    """Run one workload; returns the result record (metrics, ledger, details, spans).

    A traced run checks its counts against ``counts_path`` (see check_counts).
    """
    ledger = Ledger()
    sweep = isinstance(wl, SweepWorkload)
    if trace:
        out = (trace_sweep if sweep else trace_solves)(wl, seed, seconds, ledger, Tracer())
    else:
        out = (measure_sweep if sweep else measure_solves)(wl, seed, seconds, ledger)
    out = out or {"metrics": {}, "detail": {}}
    if trace and out["metrics"]:
        check_counts(counts_path, out["metrics"], ledger)
    out.setdefault("spans", [])
    complete = bool(out["metrics"]) and all(math.isfinite(v) for v in out["metrics"].values())
    out.update(
        correct=not ledger.failures and complete,
        attempted=max(ledger.attempted, 1),
        failed=len(ledger.failures) if ledger.attempted else 1,
        failures=ledger.failures,
    )
    return out
