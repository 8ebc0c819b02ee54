"""Per-layer spans and counts, recorded from outside the library.

``Tracer.installed()`` replaces the public functions of each framegeo
module, in every module namespace that holds them, with wrappers that
record a span per call, and replaces the third-party entry points
``ConvexHull``, ``linprog`` and ``numpy.linalg.matrix_rank`` with counters.
Leaving the block restores every attribute, so the library itself never
changes and untraced calls pay nothing.

A span's self time is its duration minus the durations of the spans it
caused.  Spans nest strictly in this single-threaded loop, so the children
of a span cover disjoint parts of it and their durations simply add up.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import framegeo
from framegeo import ellipsoids, experiments, frames, majorization, polytopes

MODULES = (framegeo, frames, majorization, ellipsoids, polytopes, experiments)


def _by_representation(h_name: str, v_name: str):
    """Name a polytope call by the representation of its first argument."""
    return lambda p, *args, **kwargs: v_name if p.vrep is not None else h_name


# (layer name, defining module, attribute, namespaces to patch or None for
# every framegeo module holding the function, span-name suffix chooser)
SPANS = (
    ("experiments.random_subspace", experiments, "random_subspace", None, None),
    ("frames.project_standard_basis", frames, "project_standard_basis", None, None),
    # only where polytopes calls it: these are the per-body re-certifications
    ("frames.certify_unit_decomposition", frames, "certify_unit_decomposition",
     (polytopes,), None),
    ("ellipsoids.lowner_symmetric", ellipsoids, "lowner_symmetric", None, None),
    ("polytopes.polytope_from_frame", polytopes, "polytope_from_frame", None, None),
    ("polytopes.cross_projection", polytopes, "cross_projection", None, None),
    ("polytopes.volume", polytopes, "volume", None,
     _by_representation(".section", ".cross")),
    ("polytopes.enumerate_vertices", polytopes, "enumerate_vertices", None, None),
    ("polytopes.support_function", polytopes, "support_function", None,
     _by_representation(".hrep", ".vrep")),
    ("polytopes.absolute_hull_gauge", polytopes, "absolute_hull_gauge", None, None),
    ("polytopes.estimate_volume", polytopes, "estimate_volume", None, None),
    ("majorization.random_realizable_profile", majorization,
     "random_realizable_profile", None, None),
    ("majorization.construct_realization", majorization, "construct_realization",
     None, None),
)

SPAN_NAMES = (
    "experiments.random_subspace",
    "frames.project_standard_basis",
    "frames.certify_unit_decomposition",
    "ellipsoids.lowner_symmetric",
    "polytopes.polytope_from_frame",
    "polytopes.cross_projection",
    "polytopes.volume.section",
    "polytopes.volume.cross",
    "polytopes.enumerate_vertices",
    "polytopes.support_function.hrep",
    "polytopes.support_function.vrep",
    "polytopes.absolute_hull_gauge",
    "polytopes.estimate_volume",
    "majorization.random_realizable_profile",
    "majorization.construct_realization",
)

# (counter name, namespace, attribute) at the third-party boundary
COUNTS = (
    ("polytopes.qhull_calls", polytopes, "ConvexHull"),
    ("polytopes.lp_calls", polytopes, "linprog"),
    ("numpy.matrix_rank_calls", np.linalg, "matrix_rank"),
)


def _namespaces(defining, attr, targets):
    if targets is not None:
        return targets
    original = getattr(defining, attr)
    return tuple(m for m in MODULES if getattr(m, attr, None) is original)


class Tracer:
    """Accumulates spans and counts over the requests it runs."""

    def __init__(self):
        self.durations = {name: [] for name in SPAN_NAMES}
        self.self_time = dict.fromkeys(SPAN_NAMES, 0.0)
        self.counts = {name: 0 for name, _, _ in COUNTS}
        self.support_sizes = []
        self.samples = 0
        self.root_time = 0.0
        self.root_self = 0.0
        self._open = []  # child time accumulated by each open span

    def _span(self, name, fn, suffix):
        def traced(*args, **kwargs):
            full = name + suffix(*args, **kwargs) if suffix else name
            self._open.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = self._open.pop()
                self._open[-1] += elapsed
                self.durations[full].append(elapsed)
                self.self_time[full] += elapsed - children
            if full == "ellipsoids.lowner_symmetric":
                self.support_sizes.append(int(np.count_nonzero(result.weights > 0)))
            elif full == "polytopes.estimate_volume":
                self.samples += kwargs["samples"] if "samples" in kwargs else args[1]
            return result
        return traced

    def _counter(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def installed(self):
        """Patch every traced attribute; restore all of them on exit."""
        saved = []
        try:
            for name, defining, attr, targets, suffix in SPANS:
                original = getattr(defining, attr)
                wrapper = self._span(name, original, suffix)
                for module in _namespaces(defining, attr, targets):
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, wrapper)
            for name, module, attr in COUNTS:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._counter(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def request(self, fn, *args):
        """Run one request as the root span with tracing installed."""
        with self.installed():
            self._open.append(0.0)
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                elapsed = perf_counter() - start
                self.root_time += elapsed
                self.root_self += elapsed - self._open.pop()

    def metrics(self, trials: int) -> dict:
        """Per-layer metrics, each as {"value": ..., "unit": ...}."""
        out = {}
        root = self.root_time or 1.0
        for name in SPAN_NAMES:
            spans = self.durations[name]
            out[f"{name}.calls_per_trial"] = (len(spans) / trials, "count")
            out[f"{name}.ms_p50"] = (
                statistics.median(spans) * 1e3 if spans else 0.0, "ms")
            out[f"{name}.self_share"] = (self.self_time[name] / root, "frac")
        for name, _, _ in COUNTS:
            out[f"{name}_per_trial"] = (self.counts[name] / trials, "count")
        out["ellipsoids.lowner_symmetric.support_size_p50"] = (
            float(statistics.median(self.support_sizes)) if self.support_sizes else 0.0,
            "count")
        estimate_time = sum(self.durations["polytopes.estimate_volume"])
        out["polytopes.estimate_volume.samples_per_s"] = (
            self.samples / estimate_time if estimate_time else 0.0, "1/s")
        out["experiments.self_share"] = (self.root_self / root, "frac")
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in out.items()}
