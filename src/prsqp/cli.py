"""Batch front end: JSON experiment configs, data generation, solves, sweeps.

Subcommands
-----------
solve --config c.json
    Build the configured problem from its seed, run the splitting solver from
    ``w0 = 0`` (and the gradient baseline when requested), write
    ``trace.csv`` + ``summary.json`` (+ ``baseline_trace.csv``) into the
    config's output directory.
sweep --config s.json
    One solve per (r, s, alpha) grid point, rows computed concurrently with
    per-row seeds ``base_seed XOR row_index``; writes ``sweep.csv`` in grid
    order regardless of completion order.
check-params --config c.json
    Print the diagnostics report (step floor, decrease margins, regime,
    curvature bounds) for the configured problem/parameters as JSON.
gen-data --problem quadratic|classification|huber_lasso --seed N --out f.json
    Persist a sampled instance to the JSON problem container understood by
    ``solve`` configs with ``{"type": "quadratic", "file": ...}``.

Exit codes: 0 success; 1 config error (:class:`ConfigError`, raised while the
configuration is read and its problem built, or when an output path cannot be
written); 2 solver failure (a breakdown status, or any other exception during
the run). All numeric output uses '.' as the decimal separator regardless of
locale (plain ``repr``/JSON).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import math
import sys
import time
import typing
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .alf import Iterate, PointEval
from .baseline import GdParams, gradient_descent
from .core import make_rng
from .diagnostics import classify_regime, diagnostics_report, kkt_residual
from .problems import (
    _json_size,
    _json_weight,
    composite_objective,
    make_classification,
    make_huber_lasso,
    problem_from_json,
    problem_to_json,
    random_quadratic,
)
from .solver import SolveStatus, SolverParams, StepRecord, run

CONFIG_SCHEMA_VERSION = 1

# The pinned CSV schemas. A row's cells are read from its record by column
# name; ``elapsed_ms`` is the record's ``elapsed`` (seconds) times 1000.
TRACE_HEADER = (
    "k,t_x,t_y,norm_dx,norm_dy,L_beta,L_hat,feas_inf,kkt_inf,ofv,"
    "backtracks_x,backtracks_y,elapsed_ms"
)
BASELINE_TRACE_HEADER = "k,objective,grad_inf,t,elapsed_ms"
SWEEP_HEADER = "r,s,alpha,regime,iter,tcpu_s,ofv,fea,kkt,status"


class ConfigError(ValueError):
    """The configuration document is malformed or violates the schema."""


# ----- config parsing --------------------------------------------------------


@dataclass
class ExperimentConfig:
    problem: dict
    seed: int
    params: SolverParams
    output_dir: str
    baseline: bool = False


_PROBLEM_KEYS = {
    "classification": {"type", "n", "T", "mu"},
    "huber_lasso": {"type", "m", "n", "density", "tau", "mu"},
    "quadratic": {"type", "file"},
}

# sizes and weights are read as the same fields of a problem file are
_PROBLEM_READERS = dict.fromkeys(("m", "n", "T"), _json_size) | dict.fromkeys(("density", "tau", "mu"), _json_weight)

_PROBLEM_REQUIRED = {
    "classification": {"n", "T"},
    "huber_lasso": {"m", "n"},
    "quadratic": {"file"},
}


def _is_number(value):
    # a JSON number; true and false are not
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_keys(obj, allowed, context):
    extra = set(obj) - allowed
    if extra:
        raise ConfigError(f"unknown keys in {context}: {sorted(extra)}")


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from None


def _parse_problem(obj):
    if not isinstance(obj, dict) or "type" not in obj:
        raise ConfigError("problem must be an object with a 'type' key")
    kind = obj["type"]
    if kind not in _PROBLEM_KEYS:
        raise ConfigError(
            f"unknown problem type {kind!r} (expected one of {sorted(_PROBLEM_KEYS)})"
        )
    _check_keys(obj, _PROBLEM_KEYS[kind], f"problem ({kind})")
    missing = _PROBLEM_REQUIRED[kind] - set(obj)
    if missing:
        raise ConfigError(f"problem ({kind}) is missing keys: {sorted(missing)}")
    out = dict(obj)
    if "file" in obj and not isinstance(obj["file"], str):
        raise ConfigError(f"problem ({kind}): file must be a path string, got {obj['file']!r}")
    for key, read in _PROBLEM_READERS.items():
        if key in obj:
            try:
                out[key] = read(obj, key)
            except ValueError as exc:
                raise ConfigError(f"problem ({kind}): {exc}") from None
    return out


_PARAM_FIELD_NAMES = {f.name for f in fields(SolverParams)} - {"relaxed_alpha"}


def _parse_params(obj, relaxed_alpha):
    if obj is None:
        obj = {}
    if not isinstance(obj, dict):
        raise ConfigError("params must be an object")
    _check_keys(obj, _PARAM_FIELD_NAMES, "params")
    try:
        return SolverParams(**obj, relaxed_alpha=relaxed_alpha)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid params: {exc}") from None


def parse_experiment(obj, context="config"):
    """Validate and materialize an ExperimentConfig from a parsed JSON object."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be a JSON object")
    allowed = {"schema_version", "problem", "seed", "params", "relaxed_alpha", "output_dir", "baseline"}
    _check_keys(obj, allowed, context)
    if obj.get("schema_version") != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"{context}: schema_version must be {CONFIG_SCHEMA_VERSION}, got {obj.get('schema_version')!r}"
        )
    for key in ("problem", "seed", "output_dir"):
        if key not in obj:
            raise ConfigError(f"{context} is missing required key {key!r}")
    if isinstance(obj["seed"], bool) or not isinstance(obj["seed"], int):
        raise ConfigError(f"{context}: seed must be an integer")
    for key in ("relaxed_alpha", "baseline"):
        if not isinstance(obj.get(key, False), bool):
            raise ConfigError(f"{context}: {key} must be true or false, got {obj[key]!r}")
    return ExperimentConfig(
        problem=_parse_problem(obj["problem"]),
        seed=obj["seed"],
        params=_parse_params(obj.get("params"), obj.get("relaxed_alpha", False)),
        output_dir=str(obj["output_dir"]),
        baseline=obj.get("baseline", False),
    )


def build_problem(problem_cfg, seed):
    """Materialize the configured problem; sampled kinds consume a fresh seeded stream.

    A problem the configuration describes but that cannot be built (bad sizes,
    a malformed or inconsistent problem file) raises :class:`ConfigError`.
    """
    kind = problem_cfg["type"]
    try:
        if kind == "quadratic":
            return problem_from_json(_load_json(problem_cfg["file"]))
        # the sizes and weights the config gives; the builders hold the defaults
        given = {key: value for key, value in problem_cfg.items() if key != "type"}
        rng = make_rng(seed)
        if kind == "classification":
            return make_classification(**given, rng=rng)
        return make_huber_lasso(**given, rng=rng)
    except (TypeError, ValueError) as exc:  # ValueError covers ConfigError and DimensionMismatch
        raise ConfigError(f"cannot build the {kind} problem: {exc}") from None


# ----- CSV files ----------------------------------------------------------------


def _fmt(v):
    # repr round-trips floats exactly; integers and labels are written as they are
    if isinstance(v, (int, np.integer, str)):
        return str(v)
    return repr(float(v))


def _cell(row, column):
    return row["elapsed"] * 1000.0 if column == "elapsed_ms" else row[column]


def _open_output(path):
    # an output file that cannot be written is a configuration error, not a solver fault
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _output_dir(path):
    # the output directory, created before anything is written to it
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None
    return out


def _write_csv(header, rows, path):
    # rows are mappings from field name to value; the header picks and orders the cells
    columns = header.split(",")
    with _open_output(path) as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(_cell(row, c)) for c in columns) + "\n")


def write_trace(trace, path):
    """Write the per-iteration trace as CSV under the pinned header.

    Floats are written with ``repr`` (shortest exact round-trip decimal), so
    parsing the file back reproduces every numeric field bit-for-bit; the
    elapsed column is converted to milliseconds.
    """
    _write_csv(TRACE_HEADER, (vars(rec) for rec in trace), path)


def read_trace(path):
    """Parse a :func:`write_trace` file back into StepRecord objects."""
    types = typing.get_type_hints(StepRecord)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigError(f"empty trace file {path}")
        if ",".join(header) != TRACE_HEADER:
            raise ConfigError(f"unexpected trace header in {path}")
        out = []
        for row in reader:
            values = dict(zip(header, row))
            elapsed = float(values.pop("elapsed_ms")) / 1000.0
            out.append(StepRecord(**{k: types[k](v) for k, v in values.items()}, elapsed=elapsed))
        return out


# ----- solve ------------------------------------------------------------------


def _summarize(P, result, tcpu_s, params):
    final = result.final
    at = PointEval(P, final.x)  # f(x) and A x, once for the residuals and both objectives
    res = kkt_residual(P, final, x_eval=at)
    return {
        "iter": result.iterations,
        "tcpu_s": tcpu_s,
        "ofv": composite_objective(P, at),
        "ofv_split": at.f + float(P.eval_g(final.y)),
        "fea": res.feas,
        "kkt": res.total,
        "status": result.status.value,
        "stop_reason": result.stop_reason,
        "ell": result.ell,
        "sigma": result.sigma,
        "regime": classify_regime(params.r, params.s),
    }


def _solve(problem_cfg, seed, params):
    # the solve behind ``solve`` and each sweep row: build, run from zero, summarize
    P = build_problem(problem_cfg, seed)
    w0 = Iterate(np.zeros(P.n1), np.zeros(P.n2), np.zeros(P.n2))
    t0 = time.perf_counter()
    result = run(P, w0, params)
    return P, result, _summarize(P, result, time.perf_counter() - t0, params)


def run_experiment(cfg):
    """Execute one configured solve; returns (summary dict, SolveResult)."""
    P, result, summary = _solve(cfg.problem, cfg.seed, cfg.params)
    out_dir = _output_dir(cfg.output_dir)
    write_trace(result.trace, out_dir / "trace.csv")

    if cfg.baseline:
        iters = max(result.iterations, 1)
        gd = GdParams(max_iter=iters, tol=0.0)
        t0 = time.perf_counter()
        base = gradient_descent(P, np.zeros(P.n1), gd)
        summary["baseline"] = {
            "iter": base.iterations,
            "tcpu_s": time.perf_counter() - t0,
            "ofv": composite_objective(P, base.final_x),
            "status": base.status.value,
        }
        _write_csv(BASELINE_TRACE_HEADER, (vars(rec) for rec in base.trace), out_dir / "baseline_trace.csv")

    with _open_output(out_dir / "summary.json") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return summary, result


# ----- sweep ------------------------------------------------------------------


@dataclass
class SweepConfig:
    base: ExperimentConfig
    rs_grid: list
    alpha_grid: list
    max_workers: int = 1


def parse_sweep(obj):
    if not isinstance(obj, dict):
        raise ConfigError("sweep config must be a JSON object")
    allowed = {"schema_version", "base", "rs_grid", "alpha_grid", "max_workers"}
    _check_keys(obj, allowed, "sweep config")
    if obj.get("schema_version") != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            f"sweep config: schema_version must be {CONFIG_SCHEMA_VERSION}, got {obj.get('schema_version')!r}"
        )
    if "base" not in obj or "rs_grid" not in obj:
        raise ConfigError("sweep config needs 'base' and 'rs_grid'")
    base = parse_experiment(obj["base"], context="sweep base")
    rs_grid = obj["rs_grid"]
    if not isinstance(rs_grid, list) or not rs_grid:
        raise ConfigError("rs_grid must be a nonempty list of [r, s] pairs")
    pairs = []
    for entry in rs_grid:
        if not (isinstance(entry, list) and len(entry) == 2 and all(map(_is_number, entry))):
            raise ConfigError(f"rs_grid entries must be [r, s] pairs of numbers, got {entry!r}")
        pairs.append((float(entry[0]), float(entry[1])))
    alpha_grid = obj.get("alpha_grid", [base.params.alpha])
    if not isinstance(alpha_grid, list) or not alpha_grid or not all(map(_is_number, alpha_grid)):
        raise ConfigError("alpha_grid must be a nonempty list of numbers")
    workers = obj.get("max_workers", 1)
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ConfigError("max_workers must be a positive integer")
    return SweepConfig(base=base, rs_grid=pairs, alpha_grid=[float(a) for a in alpha_grid], max_workers=workers)


def _sweep_row(base, r, s, alpha, seed):
    # top-level function so process pools can pickle it; rebuilds everything locally
    row = {
        "r": r,
        "s": s,
        "alpha": alpha,
        "regime": classify_regime(r, s),
        "iter": 0,
        "tcpu_s": 0.0,
        "ofv": math.nan,
        "fea": math.nan,
        "kkt": math.nan,
        "status": "InvalidParams",
    }
    try:
        params = replace(base.params, r=r, s=s, alpha=alpha)
    except ValueError:
        return row
    summary = _solve(base.problem, seed, params)[2]
    row.update({key: summary[key] for key in ("iter", "tcpu_s", "ofv", "fea", "kkt", "status")})
    return row


def run_sweep(cfg):
    """One solve per (alpha, (r, s)) grid point; returns rows in grid order.

    Row index runs fastest over rs_grid; each row's problem seed is
    ``base.seed XOR row_index`` so results are independent of worker count and
    completion order. Rows whose parameters fail validation are recorded with
    status InvalidParams and the sweep continues.
    """
    points = [(r, s, alpha) for alpha in cfg.alpha_grid for r, s in cfg.rs_grid]
    jobs = [(cfg.base, r, s, alpha, cfg.base.seed ^ idx) for idx, (r, s, alpha) in enumerate(points)]
    if cfg.max_workers == 1:
        return [_sweep_row(*job) for job in jobs]
    with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.max_workers) as pool:
        return list(pool.map(_sweep_row, *zip(*jobs)))


def write_sweep(rows, path):
    _write_csv(SWEEP_HEADER, rows, path)


# ----- subcommand handlers ------------------------------------------------------


def _cmd_solve(args):
    cfg = parse_experiment(_load_json(args.config))
    summary, result = run_experiment(cfg)
    print(json.dumps(summary, indent=2))
    if result.status in (SolveStatus.LINE_SEARCH_FAILED, SolveStatus.NUMERICAL_ERROR):
        return 2
    return 0


def _cmd_sweep(args):
    cfg = parse_sweep(_load_json(args.config))
    out_dir = _output_dir(cfg.base.output_dir)
    rows = run_sweep(cfg)
    out_path = out_dir / "sweep.csv"
    write_sweep(rows, out_path)
    print(str(out_path))
    return 0


def _cmd_check_params(args):
    cfg = parse_experiment(_load_json(args.config))
    P = build_problem(cfg.problem, cfg.seed)
    try:
        report = diagnostics_report(P, cfg.params)
    except ValueError as exc:
        raise ConfigError(f"diagnostics unavailable for this configuration: {exc}") from None
    print(json.dumps(asdict(report), indent=2))
    return 0


def _cmd_gen_data(args):
    if args.problem == "quadratic":
        try:
            P = random_quadratic(args.n1, args.n2, make_rng(args.seed))
        except ValueError as exc:
            raise ConfigError(f"cannot build the quadratic problem: {exc}") from None
    else:  # argparse restricts the choices
        if args.problem == "classification":
            flags = dict(n=args.n, T=args.T, mu=args.mu)
        else:
            flags = dict(m=args.m, n=args.n, density=args.density, tau=args.tau, mu=args.mu_huber)
        # the flags given, read as a config's problem is; the builders hold the defaults
        problem = {"type": args.problem} | {key: value for key, value in flags.items() if value is not None}
        P = build_problem(_parse_problem(problem), args.seed)
    with _open_output(args.out) as fh:
        json.dump(problem_to_json(P), fh)
        fh.write("\n")
    print(args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="prsqp",
        description="Composite-optimization experiments: splitting solver, sweeps, diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one configured experiment")
    p_solve.add_argument("--config", required=True)
    p_solve.set_defaults(handler=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run an (r, s, alpha) grid")
    p_sweep.add_argument("--config", required=True)
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_check = sub.add_parser("check-params", help="print the diagnostics report as JSON")
    p_check.add_argument("--config", required=True)
    p_check.set_defaults(handler=_cmd_check_params)

    p_gen = sub.add_parser("gen-data", help="sample a problem instance and write its JSON container")
    p_gen.add_argument("--problem", required=True, choices=["quadratic", "classification", "huber_lasso"])
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--n1", type=int, default=5, help="quadratic: x dimension")
    p_gen.add_argument("--n2", type=int, default=3, help="quadratic: y dimension")
    p_gen.add_argument("--n", type=int, default=100, help="classification/huber_lasso dimension")
    p_gen.add_argument("--T", type=int, default=100, help="classification: sample count")
    p_gen.add_argument("--mu", type=float, help="classification: regularizer weight (default: the builder's)")
    p_gen.add_argument("--m", type=int, default=128, help="huber_lasso: row count")
    p_gen.add_argument("--density", type=float, help="huber_lasso: signal density (default: the builder's)")
    p_gen.add_argument("--tau", type=float, help="huber_lasso: weight (default: the builder's)")
    p_gen.add_argument(
        "--mu-huber", dest="mu_huber", type=float, help="huber_lasso: knee width (default: the builder's)"
    )
    p_gen.set_defaults(handler=_cmd_gen_data)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything else is a fault of the run, not of its configuration
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
