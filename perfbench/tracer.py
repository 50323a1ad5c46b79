"""Outside-in span tracer for prsqp.

The program is not edited. While a :class:`Tracer` is active it replaces
module attributes that hold prsqp's public layer functions, and the callables
of the problem instances built meanwhile, with wrappers that record one span per call::

    (span id, name, start, end, parent span id, operation id, raised)

Spans are kept in memory; the caller writes them out at the end of the run.
Leaving :meth:`Tracer.active` restores every replaced attribute, so untraced
measurements run the unmodified program.

Modules bind their imports by name (``from .core import cholesky_spd``), so a
function is replaced in every prsqp module that holds it, not only in the
module that defines it.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import time

# Public functions on the solve and sweep paths, by defining module. Cheap
# argument validators (as_vector, as_matrix, validate_params) are left out:
# they are called many times per iteration and would mostly measure the tracer.
LAYER_FUNCTIONS = {
    "core": ("cholesky_spd", "spectral_norm", "min_eigenvalue", "max_eigenvalue"),
    "problems": ("make_classification", "make_huber_lasso", "composite_objective", "hessian_pair"),
    "alf": ("eval_alf", "grad_alf", "eval_merit_hat"),
    "solver": ("run", "iterate_once", "line_search", "dual_update", "hybrid_accelerate"),
    "diagnostics": ("kkt_residual",),
    "cli": ("build_problem", "run_sweep"),
}

# Callables of a CompositeProblem instance; spans are named problems.<attr>.
INSTANCE_CALLABLES = (
    "eval_f",
    "eval_g",
    "grad_f",
    "grad_g",
    "hess_f_at",
    "hess_g_at",
    "apply_A",
    "apply_At",
)

ROOT = -1  # parent id of a span with no traced caller


class Tracer:
    def __init__(self):
        self.spans = []
        self.run_results = []  # SolveResult of every traced solver.run call
        self.op = 0
        self._ids = itertools.count()
        self._stack = [ROOT]
        self._undo = []

    def _wrap(self, name, fn, after=None):
        spans = self.spans
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            raised = True
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                raised = False
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, self.op, raised))
            if after is not None:
                after(out)
            return out

        return traced

    def instrument(self, problem):
        """Wrap the callables of one problem instance until the tracer exits."""
        for attr in INSTANCE_CALLABLES:
            own = attr in vars(problem)
            original = getattr(problem, attr)
            setattr(problem, attr, self._wrap(f"problems.{attr}", original))
            self._undo.append((problem, attr, own, original))

    def _patch_modules(self):
        modules = {name: sys.modules[f"prsqp.{name}"] for name in LAYER_FUNCTIONS}
        holders = [m for key, m in sys.modules.items() if key == "prsqp" or key.startswith("prsqp.")]
        after = {"solver.run": self.run_results.append, "cli.build_problem": self.instrument}
        for mod_name, names in LAYER_FUNCTIONS.items():
            for fn_name in names:
                original = getattr(modules[mod_name], fn_name)
                span = f"{mod_name}.{fn_name}"
                wrapper = self._wrap(span, original, after.get(span))
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            self._undo.append((holder, attr, True, original))

    def _restore(self):
        while self._undo:
            obj, attr, own, original = self._undo.pop()
            if own:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)

    @contextlib.contextmanager
    def active(self, op):
        """Trace prsqp under operation id ``op``; instances built meanwhile are traced too."""
        if self._undo:
            raise RuntimeError("tracer is already active")
        self.op = op
        try:
            self._patch_modules()
            yield self
        finally:
            self._restore()

    def take(self):
        """Return and forget the spans and solve results recorded so far."""
        spans, results = self.spans[:], self.run_results[:]
        self.spans.clear()
        self.run_results.clear()
        return spans, results


class SpanTable:
    """Per-name totals over a list of spans, split by the enclosing layer scope.

    A span's scope is the name of its nearest ancestor among ``scopes``
    (``None`` outside them). Self time is a span's duration minus the
    durations of its direct children.
    """

    def __init__(self, spans, scopes=("solver.run", "cli.build_problem")):
        spans = sorted(spans)  # ids are taken on entry, so parents sort before children
        name_of = {s[0]: s[1] for s in spans}
        child_time = {}
        for _, _, t0, t1, parent, _, _ in spans:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        scope_of = {ROOT: None}
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.raised = {}
        evals_under = {}
        for sid, name, t0, t1, parent, _, raised in spans:
            parent_name = name_of.get(parent)
            scope_of[sid] = parent_name if parent_name in scopes else scope_of.get(parent)
            key = (scope_of[sid], name)
            dur = t1 - t0
            self.calls[key] = self.calls.get(key, 0) + 1
            self.total[key] = self.total.get(key, 0.0) + dur
            self.self_time[key] = self.self_time.get(key, 0.0) + dur - child_time.get(sid, 0.0)
            self.raised[key] = self.raised.get(key, 0) + int(raised)
            if name == "alf.eval_alf" and parent_name == "solver.line_search":
                evals_under[parent] = evals_under.get(parent, 0) + 1
        # a line search evaluates L0 once, then one trial per step length tried
        searches = [s for s in spans if s[1] == "solver.line_search"]
        self.line_search_trials = sum(max(evals_under.get(s[0], 0) - 1, 0) for s in searches)
        self.line_search_accepts = sum(
            1 for s in searches if evals_under.get(s[0], 0) > 1 and not s[6]
        )
