"""Spans and counters around the five layers of ``pshardy``, from outside.

``Tracer.install()`` replaces public entry points of ``geometry``,
``potential``, ``exhaustion``, ``hardy`` and ``factorization`` (and the
three route functions ``hardy_norm`` looks up by module attribute) with
wrappers that record one span per call: an id, the id of the enclosing
span, the layer, a kind, start and end times and a point count.  Nothing
in ``src/`` changes.  A target that does not exist is listed in
``absent`` and skipped.

Integrands handed to the quadrature engine by another layer are wrapped
as well.  Their spans belong to the layer that handed them in, so the
engine's own self time is its bookkeeping alone, and they count the
nodes evaluated.  ``wants_node_weights`` is forwarded: the engine hands
node weights to the wrapper, and the wrapper passes them on before each
call.

``metrics(spans)`` turns a list of spans into the per-layer figures the
benchmark reports; see README.md for what each one means.
"""

from __future__ import annotations

import functools
import time

import numpy as np

LAYERS = ("geometry", "potential", "exhaustion", "hardy", "factorization")

# (module, attribute path, kind, how to count points).  Kinds named here
# are the ones the per-layer metrics read; every other public function of
# a module gets a span of kind "call" so its time lands in its layer.
# "arg1" counts the points of the first argument after self; "returned"
# wraps the callable the target returns (a density closure) instead.
TARGETS = [
    ("geometry", "integrate_interval", "integral", None),
    ("geometry", "integrate_boundary_arc", "integral", None),
    ("geometry", "integrate_disk_area", "integral", None),
    ("potential", "JordanDiskMap.__init__", "chart_build", None),
    ("potential", "JordanDiskMap.forward", "chart_eval", "arg1"),
    ("potential", "JordanDiskMap.derivative", "chart_eval", "arg1"),
    ("potential", "JordanDiskMap.inverse", "chart_eval", "arg1"),
    ("potential", "RieszMeasure.pair", "pair", None),
    ("potential", "RieszMeasure.total_mass", "call", None),
    ("exhaustion", "ExhaustionSpec.__call__", "batch_eval", "arg1"),
    ("exhaustion", "ExhaustionSpec.precise", "precise_eval", None),
    ("exhaustion", "sublevel_set", "trace", None),
    ("exhaustion", "demailly_measure", "demailly", None),
    ("hardy", "hardy_norm", "query", None),
    ("hardy", "boundary_weight", "weight", None),
    ("hardy", "_build_weight", "weight_build", None),
    ("hardy", "BoundaryWeight.at", "weight_eval", "arg1"),
    ("hardy", "_route_level", "route_level", None),
    ("hardy", "_route_bulk", "route_bulk", None),
    ("hardy", "_route_boundary", "route_boundary", None),
    ("hardy", "_classical_power", "classical", None),
    ("factorization", "AnalyticExpr.__call__", "expr_eval", None),
    ("factorization", "AnalyticExpr.boundary_trace", "expr_eval", None),
    ("factorization", "AnalyticExpr.modulus_power_density", "expr_eval", "returned"),
    ("factorization", "u_inner", "call", None),
    ("factorization", "beurling_isometry_check", "call", None),
    ("factorization", "divide_by_blaschke", "call", None),
    ("factorization", "outer_function", "call", None),
    ("factorization", "blaschke", "call", None),
    ("factorization", "OuterFunction._init_from_samples", "outer_build", None),
    ("factorization", "OuterFunction._eval", "outer_eval", "arg1"),
]

# Methods whose calls are counted as level-cache hits when they return
# without having traced a level or built a Demailly measure.
CACHE_TARGETS = [
    ("exhaustion", "ExhaustionSpec.sublevel"),
    ("exhaustion", "ExhaustionSpec.demailly"),
]

# Span record fields, kept as lists for cheap in-place completion.
ID, PARENT, LAYER, KIND, T0, T1, POINTS = range(7)


def _size(x):
    try:
        return int(np.size(x))
    except (TypeError, ValueError):
        return 1


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {"chart_iterations": 0, "level_cache_hits": 0,
                       "inconclusive": 0}
        self.absent = []
        self._patches = []

    # -- installation ----------------------------------------------------

    def install(self):
        import importlib

        mods = {name: importlib.import_module(f"pshardy.{name}") for name in LAYERS}
        done = set()
        for layer, path, kind, count in TARGETS:
            self._patch(mods, layer, path, kind, count)
            done.add((layer, path))
        for layer, mod in mods.items():
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if (layer, name) in done or not _is_plain_function(obj, mod):
                    continue
                self._patch(mods, layer, name, "call", None)
        for layer, path in CACHE_TARGETS:
            self._patch_cache(mods, layer, path)
        return self

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _resolve(self, mods, layer, path):
        owner = mods[layer]
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None, None
        original = owner.__dict__.get(parts[-1]) if isinstance(owner, type) \
            else getattr(owner, parts[-1], None)
        return owner, parts[-1], original

    def _patch(self, mods, layer, path, kind, count):
        owner, name, original = self._resolve(mods, layer, path)
        if original is None or not callable(original):
            self.absent.append(f"{layer}.{path}")
            return
        if kind == "integral":
            wrapper = self._wrap_integral(original, layer)
        else:
            wrapper = self._wrap(original, layer, kind, count)
        if isinstance(owner, type):
            self._set(owner, name, original, wrapper)
            return
        # module-level functions are also bound by name in the modules
        # that imported them; replace every binding of the same object
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, attr, original, wrapper)

    def _set(self, owner, name, original, wrapper):
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _patch_cache(self, mods, layer, path):
        owner, name, original = self._resolve(mods, layer, path)
        if original is None:
            self.absent.append(f"{layer}.{path}")
            return
        tracer = self

        @functools.wraps(original)
        def cached(*args, **kwargs):
            before = tracer._builds()
            out = original(*args, **kwargs)
            if tracer._builds() == before:
                tracer.counts["level_cache_hits"] += 1
            return out

        self._set(owner, name, original, cached)

    def _builds(self):
        return self.counts.get("trace_calls", 0) + self.counts.get("demailly_calls", 0)

    # -- spans -----------------------------------------------------------

    def _open(self, layer, kind, points=0):
        rec = [len(self.spans), self.stack[-1][ID] if self.stack else -1,
               layer, kind, time.perf_counter(), None, points]
        self.spans.append(rec)
        self.stack.append(rec)
        return rec

    def _close(self, rec):
        rec[T1] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, layer, kind, count):
        tracer = self
        calls_key = {"trace": "trace_calls", "demailly": "demailly_calls"}.get(kind)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            points = 0
            if count == "arg1" and len(args) > 1 and not (
                    parent is not None and parent[KIND] == kind):
                points = _size(args[1])
            if calls_key:
                tracer.counts[calls_key] = tracer.counts.get(calls_key, 0) + 1
            rec = tracer._open(layer, kind, points)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if count == "returned":
                return tracer._wrap(out, layer, kind, None)
            if kind == "chart_build":
                tracer.counts["chart_iterations"] += int(getattr(args[0], "iterations", 0))
            return out

        return wrapper

    def _wrap_integral(self, fn, layer):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            if parent is not None and parent[LAYER] == layer and parent[KIND] == "integral":
                # the engine calling itself: one integral, already counted
                return fn(*args, **kwargs)
            caller = parent[LAYER] if parent is not None else "bench"
            args = list(args)
            if args:
                args[0] = tracer._wrap_integrand(args[0], caller)
            if kwargs.get("density_polar") is not None:
                kwargs["density_polar"] = tracer._wrap_integrand(
                    kwargs["density_polar"], caller, point_arg=1)
            if kwargs.get("radial_cut") is not None:
                kwargs["radial_cut"] = tracer._wrap_integrand(
                    kwargs["radial_cut"], caller, point_arg=None)
            rec = tracer._open(layer, "integral")
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if getattr(res, "status", None) == "INCONCLUSIVE":
                tracer.counts["inconclusive"] += 1
            return res

        return wrapper

    def _wrap_integrand(self, f, caller, point_arg=0):
        """Span f's calls in the caller's layer; count nodes at point_arg."""
        tracer = self
        wants = bool(getattr(f, "wants_node_weights", False))
        kind = "integrand" if point_arg is not None else "region"

        def counted(*args):
            if wants:
                f._node_weights = counted._node_weights
            points = _size(args[point_arg]) if point_arg is not None else 0
            rec = tracer._open(caller, kind, points)
            try:
                return f(*args)
            finally:
                tracer._close(rec)

        counted.wants_node_weights = wants
        return counted


def _is_plain_function(obj, mod):
    return (callable(obj) and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == mod.__name__)


# ---------------------------------------------------------------------------
# metrics from spans
# ---------------------------------------------------------------------------


def self_times(spans):
    """Self time of each span of a contiguous slice: duration minus children.

    Parents outside the slice (or -1) mark roots.
    """
    if not spans:
        return np.zeros(0)
    base = spans[0][ID]
    own = np.array([s[T1] - s[T0] for s in spans])
    out = own.copy()
    for i, s in enumerate(spans):
        j = s[PARENT] - base
        if 0 <= j < len(spans):
            out[j] -= own[i]
    return out


def _outermost(spans, kind):
    """Spans of a kind not nested inside another span of the same kind."""
    if not spans:
        return []
    base = spans[0][ID]
    picked = []
    for s in spans:
        if s[KIND] != kind:
            continue
        j = s[PARENT] - base
        while 0 <= j < len(spans) and spans[j][KIND] != kind:
            j = spans[j][PARENT] - base
        if not 0 <= j < len(spans):
            picked.append(s)
    return picked


def metrics(spans, counts):
    """Per-layer figures of one round: seconds and exact counts."""
    selfs = self_times(spans)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(sum(
            t for s, t in zip(spans, selfs) if s[LAYER] == layer))

    def incl(kind):
        return float(sum(s[T1] - s[T0] for s in _outermost(spans, kind)))

    def n(kind):
        return len(_outermost(spans, kind))

    def pts(kind):
        return int(sum(s[POINTS] for s in spans if s[KIND] == kind))

    integrals = [s for s in spans if s[KIND] == "integral"]
    out.update({
        "geometry.integrals": len(integrals),
        "geometry.nodes": pts("integrand"),
        "geometry.inconclusive": int(counts.get("inconclusive", 0)),
        "potential.chart_build_s": incl("chart_build"),
        "potential.chart_builds": n("chart_build"),
        "potential.chart_iterations": int(counts.get("chart_iterations", 0)),
        "potential.chart_eval_s": incl("chart_eval"),
        "potential.chart_eval_points": pts("chart_eval"),
        "potential.pair_s": incl("pair"),
        "potential.pairs": n("pair"),
        "exhaustion.precise_eval_s": incl("precise_eval"),
        "exhaustion.precise_evals": n("precise_eval"),
        "exhaustion.trace_s": incl("trace"),
        "exhaustion.traces": n("trace"),
        "exhaustion.batch_eval_s": incl("batch_eval"),
        "exhaustion.batch_eval_points": pts("batch_eval"),
        "exhaustion.demailly_s": incl("demailly"),
        "exhaustion.demailly_builds": n("demailly"),
        "exhaustion.level_cache_hits": int(counts.get("level_cache_hits", 0)),
        "hardy.weight_build_s": incl("weight_build"),
        "hardy.weight_builds": len([s for s in spans if s[KIND] == "weight_build"]),
        "hardy.weight_eval_s": incl("weight_eval"),
        "hardy.weight_eval_points": pts("weight_eval"),
        "hardy.route_level_s": incl("route_level"),
        "hardy.route_bulk_s": incl("route_bulk"),
        "hardy.route_boundary_s": incl("route_boundary"),
        "hardy.classical_s": incl("classical"),
        "factorization.outer_eval_points": pts("outer_eval"),
    })
    return out
