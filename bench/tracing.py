"""Span tracing of haarwords' public functions, installed from outside the
package.

Each target is looked up by name.  Its wrapper replaces the name in every
haarwords module that bound the same object (for example both
`weingarten.wg` and the `wg` that `wordint` imported), so callers that look
the name up at call time or at import time both go through the span.
Modules the CLI imports lazily are wrapped as soon as they load.  A
target that no longer exists is skipped, and its metrics are absent from
the result rather than reported as zero.

Spans are kept in memory as (name, start, end, parent, case, nested) rows
and turned into metrics only when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import importlib.abc
import importlib.machinery
import inspect
import sys
import time
from collections import defaultdict


class Target:
    """One traced function: `path` is the attribute path inside the module
    (a dotted path reaches a method), `counters` maps a counter name to a
    hook(bound_arguments, result) returning the amount to add."""

    def __init__(self, module, path, counters=None):
        self.module = module
        self.path = path
        self.name = f"{module}.{path}"
        self.counters = counters or {}


def _arg(name):
    return lambda bound, result: bound.get(name)


def _steps_times_samples(bound, result):
    steps, samples = bound.get("steps"), bound.get("samples")
    return None if steps is None or samples is None else steps * samples


def _rows(bound, result):
    rows = bound.get("rows")
    return None if rows is None else len(rows)


TARGETS = (
    Target("cli", "run"),
    Target("symgroup", "koike_expand"),
    Target("symgroup", "powersum_schur_basechange"),
    Target("weingarten", "wg"),
    Target("wordint", "exact_word_moment"),
    Target("wordint", "expect_stable_character"),
    Target("wordint", "interpolate_phi"),
    Target("ratfunc", "solve_exact", {"unknowns": _rows}),
    Target("bounds", "g_polynomial"),
    Target("bounds", "g_derivative_bound_check"),
    Target("bounds", "bump_envelope_check"),
    Target("montecarlo", "mc_expect", {"samples": _arg("samples")}),
    Target("montecarlo", "mc_trace_moment", {"samples": _arg("samples")}),
    Target("montecarlo", "sample_tuple"),
    Target("montecarlo", "weyl_character_eval"),
    Target("freegroup", "evaluate_word"),
    Target("montecarlo", "estimate_norm",
           {"iterations": lambda bound, result: getattr(result, "iterations", None)}),
    Target("montecarlo", "ImplicitTensorOperator.apply"),
    Target("montecarlo", "invariant_projector"),
    Target("rwalk", "spectral_radius"),
    Target("rwalk", "reduced_norm_lower_bound"),
    Target("freegroup", "ball", {"words": lambda bound, result: len(result)}),
    Target("rwalk", "proper_power_stats", {"walk_steps": _steps_times_samples}),
    Target("rwalk", "return_probability"),
)


class _AfterImport(importlib.abc.MetaPathFinder):
    """Finds the modules under `prefix` as the default path finder does and
    calls `callback(module)` once each has run."""

    def __init__(self, prefix, callback):
        self.prefix = prefix
        self.callback = callback

    def find_spec(self, name, path, target=None):
        if not name.startswith(self.prefix):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path, target)
        if spec is None or spec.loader is None:
            return spec
        exec_module, callback = spec.loader.exec_module, self.callback

        def run(module):
            exec_module(module)
            callback(module)

        spec.loader.exec_module = run
        return spec


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent, case, nested)
        self.counters = defaultdict(float)
        self.present = set()
        self.modules = {}        # full name -> loaded haarwords submodule
        self.case = None
        self._stack = []
        self._active = defaultdict(int)

    def install(self, package):
        """Wrap the targets in every loaded submodule of `package`, and in
        each submodule loaded later as soon as it has run.  The CLI imports
        most modules lazily, so a traced pass loads each module at the same
        point as an untraced one and the wrappers are in place before any
        other module binds a target's name."""
        self.prefix = prefix = package.__name__ + "."
        loaded = [m for name, m in list(sys.modules.items()) if name.startswith(prefix)]
        for module in loaded:
            self.modules[module.__name__] = module
        for module in loaded:
            self._wrap_module(module)
        sys.meta_path.insert(0, _AfterImport(prefix, self._loaded))

    def load_rest(self):
        """Import the target modules that no case loaded.  Called after the
        timed calls, so that a function which exists but was not called
        reads 0 and only a deleted one is absent."""
        for short in sorted({target.module for target in TARGETS}):
            try:
                importlib.import_module(self.prefix + short)
            except ModuleNotFoundError:
                pass

    def _loaded(self, module):
        self.modules[module.__name__] = module
        self._wrap_module(module)

    def _wrap_module(self, module):
        short = module.__name__.rpartition(".")[2]
        for target in TARGETS:
            if target.module != short:
                continue
            owner, _, attr = target.path.rpartition(".")
            holder = module
            for part in filter(None, owner.split(".")):
                holder = getattr(holder, part, None)
            original = getattr(holder, attr, None) if holder is not None else None
            if original is None:
                continue
            wrapper = self._wrap(target, original)
            if owner:
                setattr(holder, attr, wrapper)
            else:
                for mod in self.modules.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
            self.present.add(target.name)

    def _wrap(self, target, original):
        try:
            signature = inspect.signature(original)
        except (TypeError, ValueError):
            signature = None
        name = target.name
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            nested = active[name] > 0
            spans.append(None)
            stack.append(index)
            active[name] += 1
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                active[name] -= 1
                stack.pop()
                spans[index] = (name, start, end, parent, self.case, nested)
            if target.counters and signature is not None:
                bound = signature.bind(*args, **kwargs).arguments
                for counter, hook in target.counters.items():
                    amount = hook(bound, result)
                    if amount is not None:
                        self.counters[f"{name}.{counter}"] += amount
            return result

        return wrapper

    def span_stats(self):
        """Per span name: calls, calls not nested in a span of the same name,
        inclusive seconds (outermost spans of that name only, so recursion is
        not counted twice) and self seconds."""
        child = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {name: {"calls": 0, "outer_calls": 0, "s": 0.0, "self_s": 0.0}
                 for name in self.present}
        for index, (name, start, end, _, _, nested) in enumerate(self.spans):
            entry = stats[name]
            entry["calls"] += 1
            if not nested:
                entry["outer_calls"] += 1
                entry["s"] += end - start
            entry["self_s"] += end - start - child[index]
        return stats

    def metrics(self):
        """The per-layer metrics a traced pass reports, keyed by metric name.
        A metric whose function is gone is left out."""
        stats = self.span_stats()
        counters = self.counters
        out = {}

        def put(metric, span, field):
            if span in stats:
                out[metric] = stats[span][field]

        def rate(metric, spans, counter):
            spans = [s for s in spans if s in stats]
            if spans:
                seconds = sum(stats[s]["s"] for s in spans)
                work = sum(counters.get(f"{s}.{counter}", 0.0) for s in spans)
                out[metric] = work / seconds if seconds > 0 else 0.0

        def count(metric, span, counter):
            if span in stats:
                out[metric] = counters.get(f"{span}.{counter}", 0.0)

        put("cli.run.self_s", "cli.run", "self_s")
        put("symgroup.koike_expand.s", "symgroup.koike_expand", "s")
        put("symgroup.powersum_schur_basechange.s", "symgroup.powersum_schur_basechange", "s")
        put("weingarten.wg.s", "weingarten.wg", "s")
        put("weingarten.wg.calls", "weingarten.wg", "calls")
        put("wordint.exact_word_moment.self_s", "wordint.exact_word_moment", "self_s")
        put("wordint.exact_word_moment.calls", "wordint.exact_word_moment", "calls")
        put("wordint.expect_stable_character.self_s", "wordint.expect_stable_character", "self_s")
        put("wordint.interpolate_phi.self_s", "wordint.interpolate_phi", "self_s")
        put("ratfunc.solve_exact.s", "ratfunc.solve_exact", "s")
        put("ratfunc.solve_exact.calls", "ratfunc.solve_exact", "calls")
        count("ratfunc.solve_exact.unknowns", "ratfunc.solve_exact", "unknowns")
        put("bounds.g_polynomial.s", "bounds.g_polynomial", "s")
        put("bounds.g_derivative_bound_check.s", "bounds.g_derivative_bound_check", "s")
        put("bounds.bump_envelope_check.s", "bounds.bump_envelope_check", "s")
        rate("montecarlo.mc_samples_per_s",
             ["montecarlo.mc_expect", "montecarlo.mc_trace_moment"], "samples")
        put("montecarlo.sample_tuple.s", "montecarlo.sample_tuple", "s")
        put("montecarlo.weyl_character_eval.s", "montecarlo.weyl_character_eval", "s")
        put("freegroup.evaluate_word.s", "freegroup.evaluate_word", "s")
        put("freegroup.evaluate_word.calls", "freegroup.evaluate_word", "calls")
        put("montecarlo.estimate_norm.s", "montecarlo.estimate_norm", "s")
        count("montecarlo.norm_iterations", "montecarlo.estimate_norm", "iterations")
        put("montecarlo.matvecs", "montecarlo.ImplicitTensorOperator.apply", "outer_calls")
        put("montecarlo.matvec.s", "montecarlo.ImplicitTensorOperator.apply", "s")
        put("montecarlo.invariant_projector.s", "montecarlo.invariant_projector", "s")
        put("rwalk.spectral_radius.self_s", "rwalk.spectral_radius", "self_s")
        put("rwalk.reduced_norm_lower_bound.s", "rwalk.reduced_norm_lower_bound", "s")
        put("freegroup.ball.s", "freegroup.ball", "s")
        count("freegroup.ball.words", "freegroup.ball", "words")
        put("rwalk.proper_power_stats.s", "rwalk.proper_power_stats", "s")
        rate("rwalk.walk_steps_per_s", ["rwalk.proper_power_stats"], "walk_steps")
        put("rwalk.return_probability.s", "rwalk.return_probability", "s")
        return out
