"""Names other code looks up at run time must keep resolving.

``perfbench/tracer.py`` fetches prsqp's layer functions, and the callables of
the problems it traces, with ``getattr``, so deleting or renaming one in
``src/`` would break a traced benchmark run without failing any import.
"""

import importlib
import importlib.util
from pathlib import Path

import prsqp

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_layer_functions_resolve():
    layers = _load_tracer().LAYER_FUNCTIONS
    assert layers
    for mod_name, names in layers.items():
        module = importlib.import_module(f"prsqp.{mod_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"prsqp.{mod_name}.{name}"


def test_tracer_instance_callables_resolve_on_every_family():
    names = _load_tracer().INSTANCE_CALLABLES
    assert names
    rng = prsqp.make_rng(1)
    for P in (
        prsqp.random_quadratic(4, 3, rng),
        prsqp.make_classification(5, 6, rng=rng),
        prsqp.make_huber_lasso(3, 8, rng=rng),
    ):
        for name in names:
            assert callable(getattr(P, name, None)), f"{P.name}.{name}"


def test_public_names_are_unique_and_resolve():
    assert len(set(prsqp.__all__)) == len(prsqp.__all__)
    assert [name for name in prsqp.__all__ if not hasattr(prsqp, name)] == []
