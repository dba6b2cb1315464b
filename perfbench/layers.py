"""Per-layer spans for the traced run, recorded from outside the package.

``install`` wraps each layer's boundary function and rebinds the wrapper in
every ``igmatch`` module that holds the original, because a name imported
with ``from .graphs import enumerate_occurrences`` is a separate binding in
each importing module.  A span measures wall time; a layer's self time is its
span minus the spans of wrapped calls made inside it.  For a generator the
span covers only its ``next()`` calls.  A boundary name that no longer exists
is reported as an absent layer.
"""

import functools
import importlib
import inspect
import math
import sys
import time

# (layer, module, attribute): the function whose calls make up the layer
LAYERS = (
    ("graphs.enumerate_occurrences", "igmatch.graphs", "enumerate_occurrences"),
    ("graphs.brute_force_mis", "igmatch.graphs", "brute_force_mis"),
    ("graphs.brute_force_wis", "igmatch.graphs", "brute_force_wis"),
    ("graphs.find_igm", "igmatch.graphs", "find_igm"),
    ("graphs.find_occurrence", "igmatch.graphs", "find_occurrence"),
    ("graphs.recognize_line_graph", "igmatch.graphs", "recognize_line_graph"),
    ("graphs.occurrence_masks", "igmatch.graphs", "_occurrence_masks"),
    ("fuzzy_solver.solve_igm_small_alpha", "igmatch.fuzzy_solver", "solve_igm_small_alpha"),
    ("fuzzy_solver.residual_chain", "igmatch.fuzzy_solver", "_residual_chain"),
    ("strips.line_graph_strip_structure", "igmatch.strips", "line_graph_strip_structure"),
    ("strips.validate_strip_structure", "igmatch.strips", "validate_strip_structure"),
    ("color_coding.bases", "igmatch.color_coding", "_shaped_bases"),
    ("color_coding.embeddings", "igmatch.color_coding", "_embeddings"),
    ("color_coding.blank", "igmatch.color_coding", "blank"),
    ("color_coding.solve_strip_interiors", "igmatch.color_coding", "solve_strip_interiors"),
    ("color_coding.global_matching_step", "igmatch.color_coding", "global_matching_step"),
    ("kernel.bound_strip_graph", "igmatch.kernel", "bound_strip_graph"),
    ("kernel.derive_strip_structure", "igmatch.kernel", "derive_strip_structure"),
    ("kernel.build_wis_instance", "igmatch.kernel", "build_wis_instance"),
    ("models.validate_arc_model", "igmatch.models", "validate_arc_model"),
    ("models.realize", "igmatch.models", "realize"),
    ("models.cut_at_point", "igmatch.models", "cut_at_point"),
    ("interval_solvers.interval_wis", "igmatch.interval_solvers", "interval_wis"),
    ("interval_solvers.cut_solve", "igmatch.interval_solvers", "_cut_solve"),
)


def _shaped_cache_size():
    cache = getattr(sys.modules["igmatch.color_coding"], "_SHAPED_CACHE", None)
    return None if cache is None else len(cache)


def _count_result(layer, rec, args, result, before):
    """Work counts taken at the layer boundary from arguments and result."""
    if layer == "graphs.enumerate_occurrences":
        rec.add(layer + ".occurrences", len(result))
        if len(args) >= 2:
            g, h = args[0], args[1]
            rec.add(layer + ".subsets", math.comb(g.n, h.h))
    elif layer == "color_coding.bases":
        rec.add(layer + ".bases", len(result))
        after = _shaped_cache_size()
        if before is not None and after is not None:
            rec.add(layer + (".cache_misses" if after > before else ".cache_hits"), 1)
    elif layer == "color_coding.blank":
        rec.add(layer + ".survived", result is not None)
    elif layer == "color_coding.global_matching_step":
        rec.add(layer + ".succeeded", result is not None)
    elif layer == "kernel.bound_strip_graph":
        rec.add(layer + ".decided", getattr(result, "status", None) == "decided")


class Recorder:
    """Calls, self time and counts per layer, kept in memory."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self._child = [0.0]

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def enter(self):
        self._child.append(0.0)

    def leave(self, layer, elapsed, call=True):
        child = self._child.pop()
        self._child[-1] += elapsed
        self.self_s[layer] = self.self_s.get(layer, 0.0) + elapsed - child
        if call:
            self.calls[layer] = self.calls.get(layer, 0) + 1

    def reset_stack(self):
        """Drop open spans, e.g. after a time limit interrupted a solve."""
        self._child = [0.0]

    def span(self, layer, fn, *args):
        """Time a call the benchmark itself makes as its own layer."""
        self.enter()
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.leave(layer, time.perf_counter() - t0)

    def ms(self, layer):
        return 1000.0 * self.self_s.get(layer, 0.0)


class Tracer:
    """Installs wrappers that record into ``self.recorder``."""

    def __init__(self):
        self.recorder = Recorder()
        self.absent = []
        self._undo = []

    def _wrap(self, layer, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.recorder.calls[layer] = tracer.recorder.calls.get(layer, 0) + 1
                return tracer._timed_iter(layer, fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.recorder
            before = _shaped_cache_size() if layer == "color_coding.bases" else None
            rec.enter()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.leave(layer, time.perf_counter() - t0)
            _count_result(layer, rec, args, result, before)
            return result

        return wrapper

    def _timed_iter(self, layer, it):
        try:
            while True:
                rec = self.recorder
                rec.enter()
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    rec.leave(layer, time.perf_counter() - t0, call=False)
                    return
                rec.leave(layer, time.perf_counter() - t0, call=False)
                rec.add(layer + ".items", 1)
                yield item
        finally:
            it.close()

    def install(self):
        self.absent = []
        originals = []
        for layer, modname, attr in LAYERS:
            try:
                original = getattr(importlib.import_module(modname), attr, None)
            except ImportError:
                original = None
            if original is None:
                self.absent.append(layer)
            else:
                originals.append((layer, original))
        modules = [m for name, m in list(sys.modules.items())
                   if name == "igmatch" or name.startswith("igmatch.")]
        for layer, original in originals:
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._undo.append((mod, name, original))

    def uninstall(self):
        for mod, name, original in reversed(self._undo):
            setattr(mod, name, original)
        self._undo.clear()


def _calls(layer):
    return lambda r: r.calls.get(layer, 0)


def _ms(layer):
    return lambda r: r.ms(layer)


def _count(key):
    return lambda r: r.counts.get(key, 0)


def _share(key, layer):
    return lambda r: r.counts.get(key, 0) / r.calls[layer] if r.calls.get(layer) else 0.0


def _std(layer, *fields):
    """Calls and self time of a layer; less of either is better."""
    table = {"calls": ("count", _calls), "ms": ("ms", _ms)}
    return [(f"{layer}.{f}", table[f][0], "lower", table[f][1](layer)) for f in fields]


# per-layer metrics: (name, unit, better, value from a Recorder)
PER_LAYER = (
    _std("graphs.enumerate_occurrences", "calls", "ms")
    + [("graphs.enumerate_occurrences.occurrences", "count", "lower",
        _count("graphs.enumerate_occurrences.occurrences")),
       ("graphs.enumerate_occurrences.subsets", "count", "lower",
        _count("graphs.enumerate_occurrences.subsets"))]
    + _std("graphs.brute_force_mis", "calls", "ms")
    + _std("graphs.brute_force_wis", "calls", "ms")
    + _std("kernel.wis_solve", "ms")
    + _std("graphs.find_igm", "calls", "ms")
    + _std("fuzzy_solver.solve_igm_small_alpha", "calls", "ms")
    + _std("graphs.find_occurrence", "calls", "ms")
    + _std("graphs.recognize_line_graph", "ms")
    + _std("strips.line_graph_strip_structure", "calls", "ms")
    + _std("strips.validate_strip_structure", "calls", "ms")
    + _std("color_coding.bases", "ms")
    + [("color_coding.bases.bases", "count", "lower", _count("color_coding.bases.bases")),
       ("color_coding.bases.cache_hits", "count", "higher", _count("color_coding.bases.cache_hits")),
       ("color_coding.bases.cache_misses", "count", "lower", _count("color_coding.bases.cache_misses")),
       ("color_coding.embeddings.count", "count", "lower", _count("color_coding.embeddings.items"))]
    + _std("color_coding.embeddings", "ms")
    + _std("color_coding.blank", "calls")
    + [("color_coding.blank.survival", "ratio", "higher",
        _share("color_coding.blank.survived", "color_coding.blank"))]
    + _std("color_coding.solve_strip_interiors", "calls", "ms")
    + _std("color_coding.global_matching_step", "calls", "ms")
    + [("color_coding.global_matching_step.success", "ratio", "higher",
        _share("color_coding.global_matching_step.succeeded", "color_coding.global_matching_step"))]
    + _std("kernel.bound_strip_graph", "ms")
    + [("kernel.bound_strip_graph.decided_share", "ratio", "higher",
        _share("kernel.bound_strip_graph.decided", "kernel.bound_strip_graph"))]
    + _std("kernel.derive_strip_structure", "calls", "ms")
    + _std("kernel.build_wis_instance", "ms")
    + [("kernel.wis.vertices", "count", "lower", _count("kernel.wis.vertices")),
       ("kernel.wis.edges", "count", "lower", _count("kernel.wis.edges"))]
    + _std("models.validate_arc_model", "ms")
    + _std("models.realize", "ms")
    + _std("models.cut_at_point", "calls", "ms")
    + _std("interval_solvers.interval_wis", "calls", "ms")
    + [("interval_solvers.cut_solves", "count", "lower", _calls("interval_solvers.cut_solve"))]
    + _std("graphs.occurrence_masks", "ms")
    + _std("fuzzy_solver.residual_chain", "calls", "ms")
)
