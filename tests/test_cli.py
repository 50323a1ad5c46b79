import concurrent.futures
import csv
import json
import math
import os
import re
from dataclasses import fields

import numpy as np
import pytest

from prsqp import (
    Iterate,
    SolverParams,
    StepRecord,
    gradient_descent,
    make_classification,
    make_huber_lasso,
    make_quadratic,
    make_rng,
    problem_to_json,
    random_quadratic,
    run,
    suggest_params,
)
from prsqp.cli import (
    SWEEP_HEADER,
    TRACE_HEADER,
    ConfigError,
    _parse_problem,
    _summarize,
    build_problem,
    main,
    parse_experiment,
    parse_sweep,
    run_experiment,
    run_sweep,
    write_sweep,
    write_trace,
)
from toys import fresh_python


def _quadratic_file(tmp_path, name="problem.json", n1=2, n2=2, seed=60):
    P = random_quadratic(n1, n2, make_rng(seed))
    path = tmp_path / name
    path.write_text(json.dumps(problem_to_json(P)))
    return path, P


def _solve_config(tmp_path, problem_file, **extra):
    cfg = {
        "schema_version": 1,
        "problem": {"type": "quadratic", "file": str(problem_file)},
        "seed": 7,
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


# ----- config parsing ------------------------------------------------------------


def test_parse_experiment_minimal():
    cfg = parse_experiment(
        {
            "schema_version": 1,
            "problem": {"type": "classification", "n": 10, "T": 10},
            "seed": 3,
            "output_dir": "out",
        }
    )
    assert cfg.seed == 3
    assert not cfg.baseline


def _cfg(**overrides):
    base = {
        "schema_version": 1,
        "problem": {"type": "quadratic", "file": "f"},
        "seed": 1,
        "output_dir": "out",
    }
    base.update(overrides)
    return base


def test_parse_experiment_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="colour"):
        parse_experiment(_cfg(colour=1))
    with pytest.raises(ConfigError, match="bogus"):
        parse_experiment(_cfg(problem={"type": "quadratic", "file": "f", "bogus": 2}))


def test_parse_experiment_rejects_misspelled_parameter():
    # the proximal weight is spelled "ell"
    with pytest.raises(ConfigError, match="'l'"):
        parse_experiment(_cfg(params={"l": 2.0}))


def test_parse_experiment_rejects_bad_schema_and_seed():
    for bad in (2, True, 1.0):  # true and 1.0 equal 1 in Python
        with pytest.raises(ConfigError, match=f"^config: schema_version must be 1, got {bad!r}$"):
            parse_experiment(_cfg(schema_version=bad))
    with pytest.raises(ConfigError, match="^config must be a JSON object$"):
        parse_experiment([_cfg()])
    for key in ("problem", "seed", "output_dir"):
        with pytest.raises(ConfigError, match=f"^config is missing required key '{key}'$"):
            parse_experiment({k: v for k, v in _cfg().items() if k != key})
    for bad in ("one", True, 1.0, -5):
        message = re.escape(f"config: seed must be an integer >= 0, got {bad!r}")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            parse_experiment(_cfg(seed=bad))
    assert parse_experiment(_cfg(seed=0)).seed == 0


def test_parse_experiment_requires_problem_fields():
    with pytest.raises(ConfigError, match="T"):
        parse_experiment(_cfg(problem={"type": "classification", "n": 10}))
    with pytest.raises(ConfigError, match="sudoku"):
        parse_experiment(_cfg(problem={"type": "sudoku"}))
    for bad in ({"n": 10, "T": 10}, "classification", None):
        with pytest.raises(ConfigError, match="^problem must be an object with a 'type' key$"):
            parse_experiment(_cfg(problem=bad))


def test_parse_experiment_rejects_invalid_solver_ranges():
    with pytest.raises(ConfigError, match="^invalid params: beta must be positive and finite, got -1.0$"):
        parse_experiment(_cfg(params={"beta": -1.0}))
    with pytest.raises(ConfigError, match="^params must be an object$"):
        parse_experiment(_cfg(params=[1.5]))


def test_output_dir_must_be_a_non_empty_string():
    # null, 5 and ["a"] were written into ./None, ./5 and ./['a'], and "" into
    # the current directory
    for bad in (None, 5, ["a"], ""):
        message = re.escape(f"output_dir must be a non-empty string, got {bad!r}")
        with pytest.raises(ConfigError, match=f"^config: {message}$"):
            parse_experiment(_cfg(output_dir=bad))
        sweep = {"schema_version": 1, "base": _cfg(output_dir=bad), "rs_grid": [[0.1, 1.0]]}
        with pytest.raises(ConfigError, match=f"^sweep base: {message}$"):
            parse_sweep(sweep)


def test_parse_sweep_rejects_unknown_keys():
    obj = {"schema_version": 1, "base": _cfg(), "rs_grid": [[0.1, 1.0]], "alpha_grid": [0.0], "unknown": True}
    with pytest.raises(ConfigError, match=re.escape("unknown keys in sweep config: ['unknown']")):
        parse_sweep(obj)


# ----- trace files -----------------------------------------------------------------


def test_write_trace_empty_is_header_only(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace([], path)
    assert path.read_text() == TRACE_HEADER + "\n"


def test_trace_round_trip_is_exact(tmp_path):
    # floats are written with repr, so any CSV reader gets every field back bit for bit
    P = random_quadratic(3, 2, make_rng(61))
    result = run(P, Iterate(np.zeros(3), np.zeros(2), np.zeros(2)), SolverParams(max_iter=40))
    assert result.trace
    path = tmp_path / "trace.csv"
    write_trace(result.trace, path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        back = list(reader)
    assert ",".join(reader.fieldnames) == TRACE_HEADER and len(back) == len(result.trace)
    for rec, row in zip(result.trace, back):
        assert math.isfinite(rec.L_hat)
        for field in fields(StepRecord):
            if field.name == "elapsed":
                # written as milliseconds
                assert float(row["elapsed_ms"]) == pytest.approx(rec.elapsed * 1000.0, rel=1e-12)
            else:
                value = getattr(rec, field.name)
                assert type(value)(row[field.name]) == value, field.name


def test_merit_column_nonincreasing_under_certified_margins(tmp_path):
    P = make_quadratic([1.0], [0.0], [[1.0]])
    params = suggest_params("alda", P)
    result = run(P, Iterate(np.zeros(1), np.zeros(1), np.zeros(1)), params)
    merits = [rec.L_hat for rec in result.trace]
    finite = [m for m in merits if np.isfinite(m)]
    assert len(finite) >= 2
    assert all(a >= b for a, b in zip(finite, finite[1:]))


# ----- experiment runner --------------------------------------------------------------


def test_run_experiment_oracle_summary_and_outputs(tmp_path):
    problem_file, P = _quadratic_file(tmp_path)
    cfg_path = _solve_config(tmp_path, problem_file, params={"tol_step": 1e-8})
    cfg = parse_experiment(json.loads(cfg_path.read_text()))
    summary, result = run_experiment(cfg)
    assert summary["status"] == "Converged"
    assert summary["kkt"] <= 1e-6
    assert summary["regime"] == "Ascent"
    assert summary["iter"] == result.iterations
    out = tmp_path / "out"
    assert (out / "trace.csv").exists() and (out / "summary.json").exists()
    stored = json.loads((out / "summary.json").read_text())
    assert stored["kkt"] == summary["kkt"]
    assert stored["stop_reason"] == result.stop_reason
    assert (stored["ell"], stored["sigma"]) == (result.ell, result.sigma) == (cfg.params.ell, cfg.params.sigma)


def test_run_experiment_with_baseline_matches_iteration_budget(tmp_path):
    problem_file, _ = _quadratic_file(tmp_path)
    cfg_path = _solve_config(tmp_path, problem_file, baseline=True)
    cfg = parse_experiment(json.loads(cfg_path.read_text()))
    summary, result = run_experiment(cfg)
    assert "baseline" in summary
    assert summary["baseline"]["iter"] == max(result.iterations, 1)
    assert (tmp_path / "out" / "baseline_trace.csv").exists()


def test_baseline_trace_file_round_trips_the_run(tmp_path, monkeypatch):
    runs = []

    def recording(*args, **kwargs):
        runs.append(gradient_descent(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr("prsqp.cli.gradient_descent", recording)
    problem_file, _ = _quadratic_file(tmp_path)
    cfg = parse_experiment(json.loads(_solve_config(tmp_path, problem_file, baseline=True).read_text()))
    run_experiment(cfg)
    (base,) = runs
    with open(tmp_path / "out" / "baseline_trace.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = list(reader)
    assert ",".join(header) == "k,objective,grad_inf,t,elapsed_ms"
    assert len(base.trace) >= 2
    assert len(body) == len(base.trace)
    for rec, (k, objective, grad_inf, t, elapsed_ms) in zip(base.trace, body):
        assert (int(k), float(objective), float(grad_inf), float(t)) == (
            rec.k,
            rec.objective,
            rec.grad_inf,
            rec.t,
        )
        # written as milliseconds
        assert float(elapsed_ms) / 1000.0 == pytest.approx(rec.elapsed, rel=1e-12)


# ----- sweeps ---------------------------------------------------------------------------


def _sweep_config(tmp_path, problem_file, rs_grid, alpha_grid, max_workers=1):
    return {
        "schema_version": 1,
        "base": {
            "schema_version": 1,
            "problem": {"type": "quadratic", "file": str(problem_file)},
            "seed": 11,
            "params": {"max_iter": 200},
            "output_dir": str(tmp_path / "sweep_out"),
        },
        "rs_grid": rs_grid,
        "alpha_grid": alpha_grid,
        "max_workers": max_workers,
    }


def test_run_sweep_rows_cover_grid_and_flag_invalid_pairs(tmp_path):
    problem_file, _ = _quadratic_file(tmp_path)
    obj = _sweep_config(tmp_path, problem_file, [[0.1, 1.0], [1.0, -1.0], [-0.1, -0.1]], [0.0])
    rows = run_sweep(parse_sweep(obj))
    assert len(rows) == 3
    by_pair = {(row["r"], row["s"]): row for row in rows}
    assert by_pair[(1.0, -1.0)]["status"] == "InvalidParams"
    assert math.isnan(by_pair[(1.0, -1.0)]["ofv"])
    assert by_pair[(0.1, 1.0)]["regime"] == "Ascent"
    assert by_pair[(-0.1, -0.1)]["regime"] == "Descent"
    for row in rows:
        if row["status"] != "InvalidParams":
            assert row["status"] in ("Converged", "IterLimit")


def _strip_times(rows):
    return [{k: v for k, v in row.items() if k != "tcpu_s"} for row in rows]


def test_run_sweep_deterministic_across_invocations_and_workers(tmp_path):
    problem_file, _ = _quadratic_file(tmp_path)
    obj = _sweep_config(tmp_path, problem_file, [[0.1, 1.0], [-0.1, 1.0]], [0.0, 0.5])
    environ = dict(os.environ)
    rows_a = run_sweep(parse_sweep(obj))
    assert dict(os.environ) == environ
    rows_b = run_sweep(parse_sweep(obj))
    assert dict(os.environ) == environ
    obj["max_workers"] = 2
    rows_c = run_sweep(parse_sweep(obj))
    assert dict(os.environ) == environ
    assert _strip_times(rows_a) == _strip_times(rows_b) == _strip_times(rows_c)


_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

_SWEEP_WITH_THREADS = """
import os, sys
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS"):
    os.environ.pop(var, None)  # before numpy and scipy load their BLAS
os.environ.update(dict(var.split("=") for var in sys.argv[2:]))
import json
from prsqp.cli import parse_sweep, run_sweep

if __name__ == "__main__":
    obj = json.loads(sys.argv[1])
    environ = dict(os.environ)
    rows = {}
    for workers in (1, 2):
        rows[workers] = run_sweep(parse_sweep({**obj, "max_workers": workers}))
        assert dict(os.environ) == environ
    print(json.dumps(rows))
"""


def test_run_sweep_without_thread_variables_gives_the_serial_rows(tmp_path):
    # the benchmark's sweep_regimes grid, on whose 100 x 100 instance a serial
    # sweep on a full BLAS pool rounds differently from one-thread workers;
    # every row, serial or pooled, equals the rows with every pool pinned. The
    # script clears the thread variables at module level, which a worker that
    # re-imports the main module would run again before loading its BLAS.
    obj = _sweep_config(tmp_path, "unused", [[0.1, 1.0], [-0.1, 1.0], [-0.1, -0.1]], [0.0, 0.5])
    obj["base"].update(problem={"type": "classification", "n": 100, "T": 100}, seed=1)
    obj["base"]["params"] = {"max_iter": 1000, "tol_step": 0.0}
    script = tmp_path / "sweep_with_threads.py"
    script.write_text(_SWEEP_WITH_THREADS)
    rows = {}
    for pinned in (False, True):
        done = fresh_python(script, json.dumps(obj), *(f"{var}=1" for var in _BLAS_THREAD_VARS if pinned))
        assert done.returncode == 0, done.stderr
        rows[pinned] = {workers: _strip_times(r) for workers, r in json.loads(done.stdout).items()}
    assert len(rows[True]["1"]) == 6
    assert rows[False]["1"] == rows[False]["2"] == rows[True]["1"] == rows[True]["2"]


@pytest.fixture
def pool_starts(monkeypatch):
    # stands in for the process pool: records the worker count and start
    # context it is given and the environment it would start its workers
    # in, and runs the rows here
    starts = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context=None):
            starts.append((max_workers, mp_context, dict(os.environ)))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return starts


def test_sweep_workers_start_the_default_way_in_the_callers_environment(tmp_path, monkeypatch, pool_starts):
    # whatever thread variables the caller sets, the pool gets no start
    # context and the workers inherit os.environ as it is
    problem_file, _ = _quadratic_file(tmp_path)
    cfg = parse_sweep(_sweep_config(tmp_path, problem_file, [[0.1, 1.0], [-0.1, 1.0]], [0.0], max_workers=2))
    omp, openblas, mkl = _BLAS_THREAD_VARS
    for set_by_caller in ({}, {mkl: "4"}, {openblas: "3", omp: "2"}, {omp: "2", openblas: "2", mkl: "2"}):
        for var in _BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in set_by_caller.items():
            monkeypatch.setenv(var, value)
        environ = dict(os.environ)
        assert all(row["status"] in ("Converged", "IterLimit") for row in run_sweep(cfg))
        assert pool_starts[-1] == (2, None, environ)
        assert dict(os.environ) == environ


def test_run_sweep_starts_at_most_one_worker_per_row(tmp_path, pool_starts):
    # a forking pool starts every worker it is given at the first submit
    problem_file, _ = _quadratic_file(tmp_path)
    rs_grid = [[0.1, 1.0], [-0.1, 1.0], [0.5, 0.5]]
    for rows, max_workers, pool in ((3, 64, 3), (2, 64, 2), (3, 2, 2), (1, 64, None), (3, 1, None)):
        pool_starts.clear()
        cfg = parse_sweep(_sweep_config(tmp_path, problem_file, rs_grid[:rows], [0.0], max_workers=max_workers))
        assert len(run_sweep(cfg)) == rows
        assert [workers for workers, *_ in pool_starts] == ([] if pool is None else [pool])


def test_sweep_csv_rows_round_trip_exactly(tmp_path):
    problem_file, _ = _quadratic_file(tmp_path)
    obj = _sweep_config(tmp_path, problem_file, [[0.1, 1.0], [1.0, -1.0]], [0.0, 0.5])
    rows = run_sweep(parse_sweep(obj))
    path = tmp_path / "sweep.csv"
    write_sweep(rows, path)
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == len(rows)
    for row, text in zip(rows, back):
        assert list(text) == SWEEP_HEADER.split(",") and set(row) == set(text)
        for key, value in row.items():
            if isinstance(value, (str, int)):
                assert text[key] == str(value), key
            else:
                parsed = float(text[key])
                assert parsed == value or (math.isnan(parsed) and math.isnan(value)), key


# ----- command line entry point -----------------------------------------------------------


def test_cli_solve_round_trip(tmp_path, capsys):
    problem_file, _ = _quadratic_file(tmp_path)
    cfg_path = _solve_config(tmp_path, problem_file, params={"tol_step": 1e-8})
    code = main(["solve", "--config", str(cfg_path)])
    out = capsys.readouterr().out
    assert code == 0
    summary = json.loads(out)
    assert summary["status"] == "Converged"
    assert summary["kkt"] <= 1e-6


def test_cli_solve_exit_two_on_breakdown(tmp_path, capsys):
    problem_file, _ = _quadratic_file(tmp_path)
    cfg_path = _solve_config(
        tmp_path,
        problem_file,
        relaxed_alpha=True,
        params={"alpha": 10.0, "max_iter": 20},
    )
    code = main(["solve", "--config", str(cfg_path)])
    summary = json.loads(capsys.readouterr().out)
    assert code == 2
    assert summary["status"] == "LineSearchFailed"
    assert summary["stop_reason"] == "x line search found no acceptable step within 60 backtracks"


def test_cli_solve_writes_its_outputs_and_exits_two_when_the_merit_weight_overflows(tmp_path, capsys):
    # the OverflowError escaped run: solve exited 2 as a solver error and wrote nothing
    problem_file, _ = _quadratic_file(tmp_path)
    code = main(["solve", "--config", str(_solve_config(tmp_path, problem_file, params={"sigma": 1e160}))])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    summary = json.loads(captured.out)
    assert summary["status"] == "NumericalError"
    assert summary["stop_reason"].startswith("merit weight overflows float range at eta2_y = 1")
    assert json.loads((tmp_path / "out" / "summary.json").read_text()) == summary
    assert (tmp_path / "out" / "trace.csv").read_text() == TRACE_HEADER + "\n"


def test_cli_rejects_malformed_json_without_partial_outputs(tmp_path, capsys):
    # bytes that are no UTF-8 and an integer past Python's 4300 digits exited 2 as solver errors
    cfg_path = tmp_path / "broken.json"
    for text in (b"{not json", b'{"seed": "\xff"}', b"[" + b"1" * 5000 + b"]"):
        cfg_path.write_bytes(text)
        code = main(["solve", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"config error: malformed JSON in {cfg_path}: ")
        assert not (tmp_path / "out").exists()


def test_cli_rejects_unknown_key(tmp_path, capsys):
    problem_file, _ = _quadratic_file(tmp_path)
    cfg_path = _solve_config(tmp_path, problem_file, typo_key=1)
    code = main(["solve", "--config", str(cfg_path)])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_cli_rejects_negative_kkt_tolerance(tmp_path, capsys):
    problem_file, _ = _quadratic_file(tmp_path)
    cfg_path = _solve_config(tmp_path, problem_file, params={"tol_kkt": -1})
    code = main(["solve", "--config", str(cfg_path)])
    assert code == 1
    assert "tol_kkt" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_rejects_non_integer_loop_limits(tmp_path, capsys):
    problem_file, _ = _quadratic_file(tmp_path)
    for bad in (20.5, True, 3.0):
        cfg_path = _solve_config(tmp_path, problem_file, params={"max_iter": bad})
        code = main(["solve", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "config error: invalid params" in err and "max_iter must be an integer" in err
        assert not (tmp_path / "out").exists()


def test_cli_rejects_the_fixed_backtrack_budget_as_an_unknown_key(tmp_path, capsys):
    # the line search's 60 shrinks and its Armijo constants rho = 0.4 and
    # nu = 0.6 are fixed: a config that sets one names an unknown key
    problem_file, _ = _quadratic_file(tmp_path)
    for key, value in (("max_backtracks", 60), ("rho", 0.4), ("nu", 0.6)):
        cfg_path = _solve_config(tmp_path, problem_file, params={key: value})
        code = main(["solve", "--config", str(cfg_path)])
        assert code == 1
        assert capsys.readouterr().err == f"config error: unknown keys in params: [{key!r}]\n"
        assert not (tmp_path / "out").exists()


def test_cli_rejects_booleans_where_numbers_or_flags_belong(tmp_path, capsys):
    # JSON true is no weight of 1, a string "false" no flag, and true no seed
    problem_file, _ = _quadratic_file(tmp_path)
    for extra, message in (
        (dict(params={"beta": True}), "beta must be a real number"),
        (dict(params={"tol_step": True, "max_iter": 5}), "tol_step must be a real number"),
        (dict(params={"r": False}), "r must be a real number"),
        (dict(relaxed_alpha="false"), "relaxed_alpha must be true or false"),
        (dict(relaxed_alpha=1), "relaxed_alpha must be true or false"),
        (dict(baseline="false"), "baseline must be true or false"),
        (dict(seed=True), "seed must be an integer"),
    ):
        cfg_path = _solve_config(tmp_path, problem_file, **extra)
        code = main(["solve", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err and message in err
        assert not (tmp_path / "out").exists()


def test_cli_names_a_param_that_is_no_number(tmp_path, capsys):
    # a string or null reached a comparison and printed Python's TypeError, naming no field
    problem_file, _ = _quadratic_file(tmp_path)
    for params, message in (
        ({"beta": "10"}, "beta must be a real number, got '10'"),
        ({"r": None}, "r must be a real number, got None"),
    ):
        for command in ("solve", "check-params"):
            code = main([command, "--config", str(_solve_config(tmp_path, problem_file, params=params))])
            assert code == 1
            assert capsys.readouterr().err == f"config error: invalid params: {message}\n"
            assert not (tmp_path / "out").exists()


def test_cli_rejects_non_integer_sizes_and_non_number_weights_in_the_problem(tmp_path, capsys):
    # 20.9 is no size of 20, and true no weight of 1; nothing is built or written
    for problem, message in (
        ({"type": "classification", "n": 20.9, "T": 20}, "n must be an integer"),
        ({"type": "classification", "n": 20, "T": True}, "T must be an integer"),
        ({"type": "classification", "n": 20, "T": 20, "mu": True}, "mu must be a finite real number"),
        ({"type": "classification", "n": 20, "T": 20, "mu": "0.1"}, "mu must be a finite real number"),
        ({"type": "huber_lasso", "m": 8.5, "n": 16}, "m must be an integer"),
        ({"type": "huber_lasso", "m": 8, "n": "16"}, "n must be an integer"),
        ({"type": "huber_lasso", "m": 8, "n": 16, "density": True}, "density must be a finite real number"),
        ({"type": "huber_lasso", "m": 8, "n": 16, "tau": False}, "tau must be a finite real number"),
        ({"type": "huber_lasso", "m": 8, "n": 16, "tau": float("nan")}, "tau must be a finite real number"),
        ({"type": "quadratic", "file": 1}, "file must be a path string"),
    ):
        for command in ("solve", "check-params"):
            cfg = {"schema_version": 1, "problem": problem, "seed": 1, "output_dir": str(tmp_path / "out")}
            cfg_path = tmp_path / "config.json"
            cfg_path.write_text(json.dumps(cfg))
            code = main([command, "--config", str(cfg_path)])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert "config error" in captured.err and message in captured.err
            assert not (tmp_path / "out").exists()


def test_cli_rejects_non_number_weights_and_non_integer_sizes_in_the_problem_file(tmp_path, capsys):
    # a quadratic config's file may hold any family; its weights and matrix sizes are checked too,
    # and it must pass its sampler's checks: a LASSO density of 5, a tall LASSO A and a
    # classification with no samples, whose f read 0/0, were loaded and solved; an A
    # with no rows or no columns was loaded, and its solve exited 2 with numpy's message
    obj = problem_to_json(make_classification(5, 4, rng=make_rng(3)))
    lasso = problem_to_json(make_huber_lasso(3, 6, rng=make_rng(3)))
    quad = problem_to_json(random_quadratic(2, 1, make_rng(3)))
    empty = "A must have at least one row and one column, got shape {}"
    tall = {"A": {"rows": 6, "cols": 3, "data": [float(v) for v in range(1, 19)]}, "u": [1.0, 0.0, -1.0]}
    problem_file = tmp_path / "problem.json"
    for contents, message in (
        ({**obj, "mu": True}, "mu must be a finite real number"),
        ({**obj, "mu": "0.1"}, "mu must be a finite real number"),
        ({**obj, "mu": float("nan")}, "mu must be a finite real number"),
        ({**obj, "D": {**obj["D"], "rows": 5.0}}, "rows must be an integer"),
        ({**obj, "D": {**obj["D"], "cols": True}}, "cols must be an integer"),
        ({**obj, "D": {"rows": 5, "cols": 0, "data": []}, "labels": []}, "need n >= 2 and T >= 1, got n=5, T=0"),
        ({**lasso, "density": 5.0}, "density must lie in (0, 1], got 5.0"),
        ({**lasso, **tall}, "need m < n (underdetermined recovery), got m=6, n=3"),
        ({**quad, "c_g": [], "A": {"rows": 0, "cols": 2, "data": []}}, empty.format((0, 2))),
        ({**quad, "c_f": [], "A": {"rows": 1, "cols": 0, "data": []}}, empty.format((1, 0))),
        ({**lasso, "A": {"rows": 0, "cols": 6, "data": []}}, empty.format((0, 6))),
    ):
        problem_file.write_text(json.dumps(contents))
        code = main(["solve", "--config", str(_solve_config(tmp_path, problem_file))])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "config error" in captured.err and message in captured.err
        assert not (tmp_path / "out").exists()


def test_cli_rejects_a_classification_file_without_unit_norm_columns(tmp_path, capsys):
    # its diagnostics would certify margins with a Lipschitz constant that does not hold
    obj = problem_to_json(make_classification(6, 5, rng=make_rng(3)))
    problem_file = tmp_path / "problem.json"
    problem_file.write_text(json.dumps({**obj, "D": {**obj["D"], "data": [10.0 * v for v in obj["D"]["data"]]}}))
    for command in ("solve", "check-params"):
        code = main([command, "--config", str(_solve_config(tmp_path, problem_file))])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        message = "config error: cannot build the quadratic problem: D must have unit-norm columns, got norms "
        assert captured.err.startswith(message)
    assert not (tmp_path / "out").exists()


def test_build_problem_passes_only_the_given_options_to_the_builders():
    # the defaults are the builders' own, and integer weights are read as floats
    P = build_problem(_parse_problem({"type": "classification", "n": 6, "T": 5}), 3)
    Q = make_classification(6, 5, rng=make_rng(3))
    assert P.data.mu == Q.data.mu and P.data.D.tobytes() == Q.data.D.tobytes()
    P = build_problem(_parse_problem({"type": "huber_lasso", "m": 4, "n": 8, "tau": 1}), 3)
    Q = make_huber_lasso(4, 8, tau=1.0, rng=make_rng(3))
    assert (P.data.tau, P.data.mu, P.data.density) == (Q.data.tau, Q.data.mu, Q.data.density)
    assert type(P.data.tau) is float and P.A.tobytes() == Q.A.tobytes()


def test_summary_evaluates_f_and_A_x_once():
    P = make_huber_lasso(8, 16, rng=make_rng(22))
    params = SolverParams(max_iter=5)
    result = run(P, Iterate(np.zeros(P.n1), np.zeros(P.n2), np.zeros(P.n2)), params)
    calls = []
    for name in ("eval_f", "apply_A", "grad_f"):
        fn = getattr(P, name)
        setattr(P, name, lambda x, fn=fn, name=name: calls.append(name) or fn(x))
    summary = _summarize(P, result, 0.0, params)
    assert sorted(calls) == ["apply_A", "eval_f", "grad_f"]
    x, y = result.final.x, result.final.y
    assert summary["ofv"] == float(P.eval_f(x)) + float(P.eval_g(P.A @ x))
    assert summary["ofv_split"] == float(P.eval_f(x)) + float(P.eval_g(y))


def test_parse_sweep_rejects_non_numbers_in_grids_and_worker_count():
    base = {"schema_version": 1, "problem": {"type": "quadratic", "file": "f"}, "seed": 1, "output_dir": "out"}
    good = {"schema_version": 1, "base": base, "rs_grid": [[0.1, 1.0]], "alpha_grid": [0.0], "max_workers": 1}
    assert parse_sweep(good).rs_grid == [(0.1, 1.0)]
    for key, bad, message in (
        ("rs_grid", [[True, 1.0]], "rs_grid"),
        ("rs_grid", [["abc", 1.0]], "rs_grid"),
        ("rs_grid", [[0.1, "1.0"]], "rs_grid"),
        ("alpha_grid", [False], "alpha_grid"),
        ("alpha_grid", ["0.5"], "alpha_grid"),
        ("max_workers", True, "max_workers"),
        ("base", {**base, "baseline": True}, "^sweep base: baseline must be false or absent"),
        ("base", {**base, "seed": -5}, "^sweep base: seed must be an integer >= 0, got -5$"),
        ("rs_grid", [], r"^rs_grid must be a nonempty list of \[r, s\] pairs$"),
        ("schema_version", 2, "^sweep config: schema_version must be 1, got 2$"),
        ("schema_version", True, "^sweep config: schema_version must be 1, got True$"),
        ("schema_version", 1.0, r"^sweep config: schema_version must be 1, got 1\.0$"),
    ):
        with pytest.raises(ConfigError, match=message):
            parse_sweep({**good, key: bad})
    with pytest.raises(ConfigError, match="^sweep config must be a JSON object$"):
        parse_sweep([good])
    for key in ("base", "rs_grid"):
        with pytest.raises(ConfigError, match="^sweep config needs 'base' and 'rs_grid'$"):
            parse_sweep({k: v for k, v in good.items() if k != key})
    assert not parse_sweep({**good, "base": {**base, "baseline": False}}).base.baseline


def test_cli_rejects_non_finite_weights(tmp_path, capsys):
    problem_file, _ = _quadratic_file(tmp_path)
    for name in ("beta", "ell", "sigma"):
        for bad in (float("inf"), float("nan")):
            cfg_path = _solve_config(tmp_path, problem_file, params={name: bad})
            code = main(["solve", "--config", str(cfg_path)])
            assert code == 1
            assert name in capsys.readouterr().err
            assert not (tmp_path / "out").exists()


def test_cli_solver_fault_exits_two_without_config_error(tmp_path, capsys, monkeypatch):
    def broken_run(*args, **kwargs):
        raise ValueError("custom problem returned a gradient of the wrong length")

    monkeypatch.setattr("prsqp.cli.run", broken_run)
    problem_file, _ = _quadratic_file(tmp_path)
    code = main(["solve", "--config", str(_solve_config(tmp_path, problem_file))])
    err = capsys.readouterr().err
    assert code == 2
    assert "solver error" in err and "wrong length" in err
    assert "config error" not in err


def test_cli_rejects_numbers_no_float_can_hold(tmp_path, capsys):
    # each exited 2 as a solver error, though no solver ran: an OverflowError
    # while reading, or a beta accepted that overflowed the solve
    big = 10**400  # a JSON integer that no float holds
    problem_file, P = _quadratic_file(tmp_path)
    big_c_f = tmp_path / "big_c_f.json"
    big_c_f.write_text(json.dumps({**problem_to_json(P), "c_f": [big, 0.0]}))
    from_file = {"type": "quadratic", "file": str(problem_file)}
    big_mu = {"type": "classification", "n": 10, "T": 10, "mu": big}
    sweep = _sweep_config(tmp_path, problem_file, [[big, 1.0]], [0.0])
    sweep["base"]["output_dir"] = str(tmp_path / "out")

    def config(problem=big_mu, **params):
        return {**_cfg(problem=problem, output_dir=str(tmp_path / "out")), "params": params}

    margins_overflow = "diagnostics unavailable for this configuration: decrease margins delta_x, delta_y overflow"
    for command, cfg, message in (
        ("solve", config(), "problem (classification): mu must be a finite real number, got 1000"),
        ("solve", config(from_file, r=big), "invalid params: r must be a real number a float can hold"),
        ("solve", config(from_file, beta=big), "invalid params: beta must be a real number a float can hold"),
        ("solve", config(from_file | {"file": str(big_c_f)}), "cannot build the quadratic problem: each entry of c_f"),
        ("sweep", sweep, "sweep grids: int too large to convert to float"),
        ("check-params", config(from_file, beta=1e300), margins_overflow),
        ("check-params", config(from_file, sigma=1e308, beta=1e-300), margins_overflow),
    ):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main([command, "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"config error: {message}")
        assert not (tmp_path / "out").exists()


def test_cli_rejects_problem_file_with_misshapen_coupling(tmp_path, capsys):
    problem_file, P = _quadratic_file(tmp_path)
    obj = problem_to_json(P)
    obj["A"] = {"rows": P.n2 + 1, "cols": P.n1, "data": [1.0] * ((P.n2 + 1) * P.n1)}
    problem_file.write_text(json.dumps(obj))
    code = main(["solve", "--config", str(_solve_config(tmp_path, problem_file))])
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_gen_data_rejects_invalid_size(tmp_path, capsys):
    out = tmp_path / "data.json"
    for problem, flags, message in (
        ("classification", ["--n", "1"], "cannot build the classification problem: need n >= 2 and T >= 1, got n=1"),
        ("quadratic", ["--n1", "0"], "cannot build the quadratic problem: need n1 >= 1 and n2 >= 1, got n1=0, n2=3"),
        ("quadratic", ["--n2", "0"], "cannot build the quadratic problem: need n1 >= 1 and n2 >= 1, got n1=5, n2=0"),
        ("huber_lasso", ["--m", "-1", "--n", "-2"], "cannot build the huber_lasso problem: need m >= 1 and n >= 1"),
        ("huber_lasso", ["--m", "0", "--n", "4"], "cannot build the huber_lasso problem: need m >= 1 and n >= 1"),
    ):
        code = main(["gen-data", "--problem", problem, *flags, "--seed", "1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out.exists()


def test_cli_gen_data_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "data.json"
    for problem in ("quadratic", "classification", "huber_lasso"):
        code = main(["gen-data", "--problem", problem, "--seed", "-5", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "config error: --seed must be an integer >= 0, got -5\n"
        assert not out.exists()


def test_cli_gen_data_rejects_non_finite_weights(tmp_path, capsys):
    # the flags are read as a config's problem is, so no Infinity reaches the file
    out = tmp_path / "data.json"
    for problem, flag, bad in (
        ("huber_lasso", "--tau", "inf"),
        ("huber_lasso", "--mu", "nan"),
        ("classification", "--mu", "nan"),
    ):
        code = main(["gen-data", "--problem", problem, flag, bad, "--seed", "1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"config error: problem ({problem}): ")
        assert not out.exists()


def test_cli_rejects_problem_file_with_non_number_entries(tmp_path, capsys):
    problem_file, P = _quadratic_file(tmp_path)
    obj = problem_to_json(P)
    for broken in (
        {**obj, "c_f": [True, *obj["c_f"][1:]]},
        {**obj, "c_g": ["2.5", *obj["c_g"][1:]]},
        {**obj, "A": {**obj["A"], "data": [math.nan, *obj["A"]["data"][1:]]}},
    ):
        problem_file.write_text(json.dumps(broken))  # a NaN is written as NaN, which json reads back
        code = main(["solve", "--config", str(_solve_config(tmp_path, problem_file))])
        assert code == 1
        assert "must be a finite real number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _below_a_file(tmp_path):
    # a directory path under a regular file: it cannot be created
    (tmp_path / "file").write_text("")
    return tmp_path / "file" / "out"


def _assert_cannot_write(code, capsys, path):
    assert code == 1
    assert capsys.readouterr().err.startswith(f"config error: cannot write {path}: ")


def test_cli_gen_data_to_a_missing_directory_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    code = main(["gen-data", "--problem", "quadratic", "--seed", "1", "--out", str(out)])
    _assert_cannot_write(code, capsys, out)


def test_cli_solve_to_an_uncreatable_output_dir_is_a_config_error(tmp_path, capsys):
    problem_file, _ = _quadratic_file(tmp_path)
    out_dir = _below_a_file(tmp_path)
    code = main(["solve", "--config", str(_solve_config(tmp_path, problem_file, output_dir=str(out_dir)))])
    _assert_cannot_write(code, capsys, out_dir)


def test_cli_sweep_to_an_uncreatable_output_dir_is_a_config_error(tmp_path, capsys):
    problem_file, _ = _quadratic_file(tmp_path)
    out_dir = _below_a_file(tmp_path)
    obj = _sweep_config(tmp_path, problem_file, [[0.1, 1.0]], [0.0])
    obj["base"]["output_dir"] = str(out_dir)
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(obj))
    _assert_cannot_write(main(["sweep", "--config", str(cfg_path)]), capsys, out_dir)


def test_cli_output_dir_with_a_nul_byte_is_a_config_error(tmp_path, capsys):
    # mkdir raised ValueError past the output-path wrapper: exit 2 as a solver error
    problem_file, _ = _quadratic_file(tmp_path)
    out_dir = str(tmp_path / "a\0b")
    code = main(["solve", "--config", str(_solve_config(tmp_path, problem_file, output_dir=out_dir))])
    _assert_cannot_write(code, capsys, out_dir)


def test_cli_config_that_cannot_be_opened_is_a_read_error(tmp_path, capsys):
    # a directory, and a path with a NUL byte, which read as malformed JSON
    for path in (tmp_path, str(tmp_path / "a\0b")):
        assert main(["check-params", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"config error: cannot read {path}: ")


def test_cli_sweep_writes_csv(tmp_path, capsys):
    problem_file, _ = _quadratic_file(tmp_path)
    obj = _sweep_config(tmp_path, problem_file, [[0.1, 1.0], [1.0, -1.0]], [0.0])
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(obj))
    code = main(["sweep", "--config", str(cfg_path)])
    out_path = capsys.readouterr().out.strip()
    assert code == 0
    with open(out_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = list(reader)
    assert ",".join(header) == SWEEP_HEADER
    assert len(body) == 2
    statuses = {row[-1] for row in body}
    assert "InvalidParams" in statuses


def test_cli_check_params_reports_margins(tmp_path, capsys):
    problem_file, _ = _quadratic_file(tmp_path)
    cfg_path = _solve_config(tmp_path, problem_file)
    code = main(["check-params", "--config", str(cfg_path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert {"gamma", "delta_x", "delta_y", "regime", "margins_ok", "bounds"} <= set(report)
    assert report["gamma"] > 0


_FOOTPRINT = """
import sys
import prsqp
from prsqp.cli import main
code = main(["check-params", "--config", sys.argv[1]])
print(sorted(name for name in sys.modules if name.startswith("scipy.linalg")))
sys.exit(code)
"""


def test_import_and_check_params_load_no_scipy_linalg(tmp_path):
    # prsqp binds its two LAPACK routines without running scipy.linalg's
    # package initializer, which would add about 85 modules to every process
    cfg = _cfg(problem={"type": "classification", "n": 10, "T": 10}, output_dir=str(tmp_path / "out"))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    done = fresh_python(_FOOTPRINT, cfg_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_cli_gen_data_without_weight_flags_writes_what_the_builders_give(tmp_path, capsys):
    # the weight defaults are the builders' own; a given flag is passed on
    for problem, flags, build in (
        ("classification", ["--n", "6", "--T", "5"], lambda rng: make_classification(6, 5, rng=rng)),
        ("huber_lasso", ["--m", "4", "--n", "8"], lambda rng: make_huber_lasso(4, 8, rng=rng)),
        ("huber_lasso", ["--m", "4", "--n", "8", "--tau", "0.5"], lambda rng: make_huber_lasso(4, 8, tau=0.5, rng=rng)),
    ):
        out = tmp_path / "generated.json"
        assert main(["gen-data", "--problem", problem, "--seed", "3", *flags, "--out", str(out)]) == 0
        assert out.read_text() == json.dumps(problem_to_json(build(make_rng(3)))) + "\n"
    capsys.readouterr()


def test_cli_gen_data_without_size_flags_writes_the_default_sizes(tmp_path, capsys):
    # huber_lasso's default rows stay below the shared --n default, which
    # classification reads as 100 x 100
    for problem, build in (
        ("huber_lasso", lambda rng: make_huber_lasso(64, 100, rng=rng)),
        ("classification", lambda rng: make_classification(100, 100, rng=rng)),
    ):
        out = tmp_path / "generated.json"
        assert main(["gen-data", "--problem", problem, "--seed", "1", "--out", str(out)]) == 0
        assert out.read_text() == json.dumps(problem_to_json(build(make_rng(1)))) + "\n"
    capsys.readouterr()


def test_cli_usage_errors_are_config_errors(tmp_path, capsys):
    # argparse would exit 2, the code of a solver failure
    out = tmp_path / "data.json"
    for argv, message in (
        (["gen-data", "--problem", "foo", "--seed", "1", "--out", str(out)], "prsqp gen-data: argument --problem: "),
        (["solve"], "prsqp solve: the following arguments are required: --config"),
        (["gen-data", "--problem", "quadratic", "--seed", "abc", "--out", str(out)], "prsqp gen-data: argument --seed: "),
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {message}") and captured.out == ""
        assert not out.exists()
    with pytest.raises(SystemExit) as done:
        main(["gen-data", "--help"])
    assert done.value.code == 0
    capsys.readouterr()


def test_cli_json_nested_past_the_recursion_limit_is_malformed(tmp_path, capsys):
    # a config or problem file of 100,000 nested arrays
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    solve_cfg = _solve_config(tmp_path, nested)
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps(_sweep_config(tmp_path, nested, [[0.1, 1.0]], [0.0])))
    for command, config in (("solve", nested), ("sweep", nested), ("solve", solve_cfg), ("sweep", sweep_cfg)):
        assert main([command, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"malformed JSON in {nested}: maximum recursion depth" in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "sweep_out" / "sweep.csv").exists()


def test_cli_gen_data_round_trips_through_solve(tmp_path, capsys):
    data_path = tmp_path / "generated.json"
    code = main(
        ["gen-data", "--problem", "quadratic", "--seed", "5", "--n1", "3", "--n2", "2", "--out", str(data_path)]
    )
    assert code == 0
    capsys.readouterr()
    cfg_path = _solve_config(tmp_path, data_path, params={"tol_step": 1e-8})
    assert main(["solve", "--config", str(cfg_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["status"] == "Converged"
