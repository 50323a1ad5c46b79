import csv
import json
import math
from dataclasses import fields

import numpy as np
import pytest

from prsqp import (
    DimensionMismatch,
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
    read_trace,
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
    assert cfg.params.rho == 0.4
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
    with pytest.raises(ConfigError, match="schema_version"):
        parse_experiment(_cfg(schema_version=2))
    with pytest.raises(ConfigError, match="seed"):
        parse_experiment(_cfg(seed="one"))


def test_parse_experiment_requires_problem_fields():
    with pytest.raises(ConfigError, match="T"):
        parse_experiment(_cfg(problem={"type": "classification", "n": 10}))
    with pytest.raises(ConfigError, match="sudoku"):
        parse_experiment(_cfg(problem={"type": "sudoku"}))


def test_parse_experiment_rejects_invalid_solver_ranges():
    with pytest.raises(ConfigError, match="rho"):
        parse_experiment(_cfg(params={"rho": 1.5}))


def test_parse_sweep_rejects_cancelling_pair_grid():
    obj = {
        "schema_version": 1,
        "base": {"schema_version": 1, "problem": {"type": "quadratic", "file": "f"}, "seed": 1},
        "rs_grid": [[0.1, 1.0]],
        "alpha_grid": [0.0],
        "unknown": True,
    }
    with pytest.raises(ConfigError):
        parse_sweep(obj)


# ----- trace files -----------------------------------------------------------------


def test_write_trace_empty_is_header_only(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace([], path)
    assert path.read_text() == TRACE_HEADER + "\n"


def test_trace_round_trip_is_exact(tmp_path):
    P = random_quadratic(3, 2, make_rng(61))
    result = run(P, Iterate(np.zeros(3), np.zeros(2), np.zeros(2)), SolverParams(max_iter=40))
    assert result.trace
    path = tmp_path / "trace.csv"
    write_trace(result.trace, path)
    back = read_trace(path)
    assert len(back) == len(result.trace)
    for a, b in zip(result.trace, back):
        assert math.isfinite(a.L_hat)
        for field in fields(StepRecord):
            va, vb = getattr(a, field.name), getattr(b, field.name)
            if field.name == "elapsed":
                # written as milliseconds, parsed back to seconds
                assert vb == pytest.approx(va, rel=1e-12)
            else:
                assert vb == va, field.name


def test_read_trace_rejects_foreign_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        read_trace(path)


def test_read_trace_rejects_empty_file(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_bytes(b"")
    with pytest.raises(ConfigError, match="empty trace file"):
        read_trace(path)


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


def test_run_sweep_deterministic_across_invocations_and_workers(tmp_path):
    problem_file, _ = _quadratic_file(tmp_path)
    obj = _sweep_config(tmp_path, problem_file, [[0.1, 1.0], [-0.1, 1.0]], [0.0, 0.5])
    rows_a = run_sweep(parse_sweep(obj))
    rows_b = run_sweep(parse_sweep(obj))
    obj["max_workers"] = 2
    rows_c = run_sweep(parse_sweep(obj))
    def strip(rows):
        return [{k: v for k, v in row.items() if k != "tcpu_s"} for row in rows]
    assert strip(rows_a) == strip(rows_b) == strip(rows_c)


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
        params={"alpha": 10.0, "max_iter": 20, "max_backtracks": 40},
    )
    code = main(["solve", "--config", str(cfg_path)])
    summary = json.loads(capsys.readouterr().out)
    assert code == 2
    assert summary["status"] == "LineSearchFailed"
    assert "line search found no acceptable step" in summary["stop_reason"]


def test_cli_rejects_malformed_json_without_partial_outputs(tmp_path, capsys):
    cfg_path = tmp_path / "broken.json"
    cfg_path.write_text("{not json")
    code = main(["solve", "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert "config error" in err
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
    for name, bad in (("max_iter", 20.5), ("max_backtracks", 2.5), ("max_iter", True), ("max_backtracks", 3.0)):
        cfg_path = _solve_config(tmp_path, problem_file, params={name: bad})
        code = main(["solve", "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "config error: invalid params" in err and f"{name} must be an integer" in err
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
    # a quadratic config's file may hold any family; its weights and matrix sizes are checked too
    obj = problem_to_json(make_classification(5, 4, rng=make_rng(3)))
    problem_file = tmp_path / "problem.json"
    for changed, message in (
        ({"mu": True}, "mu must be a finite real number"),
        ({"mu": "0.1"}, "mu must be a finite real number"),
        ({"mu": float("nan")}, "mu must be a finite real number"),
        ({"D": {**obj["D"], "rows": 5.0}}, "rows must be an integer"),
        ({"D": {**obj["D"], "cols": True}}, "cols must be an integer"),
    ):
        problem_file.write_text(json.dumps({**obj, **changed}))
        code = main(["solve", "--config", str(_solve_config(tmp_path, problem_file))])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "config error" in captured.err and message in captured.err
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
    ):
        with pytest.raises(ConfigError, match=message):
            parse_sweep({**good, key: bad})


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
        raise DimensionMismatch("custom problem returned a gradient of the wrong length")

    monkeypatch.setattr("prsqp.cli.run", broken_run)
    problem_file, _ = _quadratic_file(tmp_path)
    code = main(["solve", "--config", str(_solve_config(tmp_path, problem_file))])
    err = capsys.readouterr().err
    assert code == 2
    assert "solver error" in err and "wrong length" in err
    assert "config error" not in err


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
    out = tmp_path / "cls.json"
    code = main(["gen-data", "--problem", "classification", "--n", "1", "--seed", "1", "--out", str(out)])
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_gen_data_rejects_non_finite_weights(tmp_path, capsys):
    # the flags are read as a config's problem is, so no Infinity reaches the file
    out = tmp_path / "data.json"
    for problem, flag, bad in (
        ("huber_lasso", "--tau", "inf"),
        ("huber_lasso", "--mu-huber", "nan"),
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
