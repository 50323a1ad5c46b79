"""Names and configs other code looks up at run time must keep resolving, and
every public name must have a user.

``perfbench/tracer.py`` fetches prsqp's layer functions, and the callables of
the problems it traces, with ``getattr``, so deleting or renaming one in
``src/`` would break a traced benchmark run without failing any import. It
times a function by replacing the module attribute, so ``iterate_once`` must
call the step helpers it traces through ``prsqp.solver``'s globals.
``perfbench/harness.py`` builds its instances from problem configs through
``cli.build_problem``, so a stricter config parser or a changed builder must
still accept them, and it drives ``solver.run`` and ``cli.run_sweep`` through
entry points that must keep running.

A name in ``prsqp.__all__``, or a public function or class defined at the top
of a module in ``src/prsqp``, that only the unit tests call is a wrapper kept
for its tests; :func:`test_every_public_name_has_a_user_outside_the_unit_tests`
and :func:`test_every_public_definition_has_a_user_outside_the_unit_tests` read
the code with ``ast`` to find one. Likewise an exception class that no
``except`` clause outside the tests names tells its callers nothing a
``ValueError`` would not, which
:func:`test_every_exception_class_is_caught_by_name_outside_the_tests` finds,
and a setting that no caller outside the unit tests sets has one value in use
and is a constant, which
:func:`test_every_setting_is_set_by_a_caller_outside_the_unit_tests` finds.
"""

import ast
import importlib
import importlib.util
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

import prsqp
from prsqp.cli import _parse_problem, build_problem, run_sweep

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
PACKAGE = ROOT / "src" / "prsqp"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_tracer_layer_functions_resolve():
    layers = _load("tracer").LAYER_FUNCTIONS
    assert layers
    for mod_name, names in layers.items():
        module = importlib.import_module(f"prsqp.{mod_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"prsqp.{mod_name}.{name}"


def test_tracer_instance_callables_resolve_on_every_family():
    names = _load("tracer").INSTANCE_CALLABLES
    assert names
    rng = prsqp.make_rng(1)
    for P in (
        prsqp.random_quadratic(4, 3, rng),
        prsqp.make_classification(5, 6, rng=rng),
        prsqp.make_huber_lasso(3, 8, rng=rng),
    ):
        for name in names:
            assert callable(getattr(P, name, None)), f"{P.name}.{name}"


def test_iterate_once_calls_the_traced_step_helpers_through_the_module(monkeypatch):
    # the tracer times these by replacing prsqp.solver's attributes, so a
    # helper inlined or bound another way would read zero in a traced run
    calls = dict.fromkeys(("line_search", "hybrid_accelerate", "dual_update"), 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(prsqp.solver, name, counting(name, getattr(prsqp.solver, name)))
    P = prsqp.random_quadratic(4, 3, prsqp.make_rng(1))
    w0 = prsqp.Iterate(np.zeros(P.n1), np.zeros(P.n2), np.zeros(P.n2))
    state = prsqp.initial_state(P, w0, prsqp.SolverParams())
    for k in range(1, 4):
        state = prsqp.iterate_once(state).state
        assert calls == dict.fromkeys(calls, 2 * k)


def test_public_names_are_unique_and_resolve():
    assert len(set(prsqp.__all__)) == len(prsqp.__all__)
    assert [name for name in prsqp.__all__ if not hasattr(prsqp, name)] == []


def test_bench_problem_configs_parse_and_build(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # harness imports tracer by its plain name
    workloads = _load("harness").WORKLOADS
    assert workloads
    for name, wl in workloads.items():
        assert _parse_problem(wl.problem) == wl.problem, name
        P = build_problem(wl.problem, 1)  # at the bench's own sizes
        assert P.name == wl.problem["type"] and P.n1 == wl.problem["n"], name


def test_bench_entry_points_run_on_small_instances(monkeypatch):
    # the bench's solve and sweep paths, at small sizes: its callback reads
    # out.record, and it builds the cli's config dataclasses itself
    monkeypatch.syspath_prepend(str(PERFBENCH))
    harness = _load("harness")
    small = {"lasso_desk": {"m": 8, "n": 16}, "classification": {"n": 6, "T": 6}}
    for name, sizes in small.items():
        wl = replace(harness.WORKLOADS[name], problem={**harness.WORKLOADS[name].problem, **sizes})
        P = build_problem(wl.problem, 1)
        k = harness.first_accurate_iterate(P, wl)
        assert k is not None, name
        seconds, result = harness.timed_solve(P, wl, k)
        assert seconds > 0.0 and harness.solve_gate(P, result, k) == [], name
    sweep = harness.WORKLOADS["sweep_regimes"]
    wl = replace(sweep, problem={**sweep.problem, "n": 6, "T": 6}, params={**sweep.params, "max_iter": 50})
    rows = run_sweep(harness.sweep_config(wl, 1, 1))
    assert harness.sweep_gate(wl, rows) == []
    assert all(1 <= row["iter"] <= 50 for row in rows)


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree):
    # the names a module's ``from ... import`` statements bind, and its __all__
    imported = [
        alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names
    ]
    (listed,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
    ]
    return imported, listed


def _uses(tree):
    # (name, names of the enclosing definitions) for each name and attribute
    # read in tree; an assignment target is a definition, not a read
    out = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, inside))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append((node.attr, inside))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return out


def test_init_imports_exactly_the_public_names():
    imported, listed = _exported(_parse(PACKAGE / "__init__.py"))
    assert sorted(imported) == sorted(listed) == sorted(prsqp.__all__)


def _used_outside_the_unit_tests():
    # read in src/ outside its own definition and __init__, read in demos/ or
    # perfbench/, or named by a string in perfbench/ (the tracer looks names
    # up by string); or imported by the acceptance tests
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= {name for name, inside in _uses(_parse(path)) if name not in inside}
    for path in [*(ROOT / "demos").glob("*.py"), *PERFBENCH.glob("*.py")]:
        tree = _parse(path)
        used |= {name for name, _ in _uses(tree)}
        if path.parent == PERFBENCH:
            used |= {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    acceptance = _parse(ROOT / "tests" / "test_acceptance.py")
    used |= {a.name for n in ast.walk(acceptance) if isinstance(n, ast.ImportFrom) for a in n.names}
    return used


def test_every_public_name_has_a_user_outside_the_unit_tests():
    assert sorted(set(prsqp.__all__) - _used_outside_the_unit_tests()) == []


def test_every_public_definition_has_a_user_outside_the_unit_tests():
    # the public functions and classes at the top of each module, exported or not
    used = _used_outside_the_unit_tests()
    defined = [
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in _parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert defined
    assert [name for name in defined if name.split(".")[1] not in used] == []


def test_every_exception_class_is_caught_by_name_outside_the_tests():
    caught = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"), *PERFBENCH.glob("*.py")]:
        for handler in ast.walk(_parse(path)):
            if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
                names = [n for n in ast.walk(handler.type) if isinstance(n, (ast.Name, ast.Attribute))]
                caught |= {n.id if isinstance(n, ast.Name) else n.attr for n in names}
    defined = [
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in _parse(path).body
        if isinstance(node, ast.ClassDef)
        and issubclass(getattr(importlib.import_module(f"prsqp.{path.stem}"), node.name), BaseException)
    ]
    assert defined
    assert [name for name in defined if name.split(".")[1] not in caught] == []


def test_every_setting_is_set_by_a_caller_outside_the_unit_tests():
    # a field of SolverParams or GdParams is set by a keyword argument or by a
    # string key of a dict literal (a config's params) in src/, demos/,
    # perfbench/ or the acceptance tests
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"), *PERFBENCH.glob("*.py")]
    named = set()
    for path in [*paths, ROOT / "tests" / "test_acceptance.py"]:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.keyword):
                named.add(node.arg)
            elif isinstance(node, ast.Dict):
                named |= {key.value for key in node.keys if isinstance(key, ast.Constant) and isinstance(key.value, str)}
    settings = [f.name for cls in (prsqp.SolverParams, prsqp.GdParams) for f in fields(cls)]
    assert [name for name in settings if name not in named] == []
