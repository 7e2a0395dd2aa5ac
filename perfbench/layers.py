"""Per-layer spans taken from outside the sdpcolor library.

A ``Tracer`` wraps the public functions that bound each layer of the
library. Wrapping patches the name in every ``sdpcolor`` module that bound
the function (``combined`` binds ``solve_vector_coloring`` and
``progress_driver`` at import), so calls between modules are seen too.
Every wrapped call is a span; a layer's self time is its span durations
minus the time of the spans nested inside them, so recursive calls
(``combined_color`` probing a pair with a recursive ``combined_color``)
are not counted twice.

The finder that ``combined`` hands to ``progress_driver`` is not a public
name, so the ``progress_driver`` wrapper wraps the finder argument: each
finder call is one round, and its self time is the finder's bookkeeping.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from sdpcolor import combined, graph, indset, progress, rounding, testkit, vecsdp
from sdpcolor.progress import Colored, LargeIndependentSet, SameColor
from sdpcolor.vecsdp import InfeasibleError, PromiseNotMetError


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)

    def bump(self, counter: str, by: int = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + by


@dataclass(frozen=True)
class Layer:
    """One wrapped entry point.

    ``before(stats, args, kwargs)`` and ``after(stats, result)`` add layer
    counters; ``errors`` maps an exception type to the counter it bumps.
    ``calls_name`` is the metric name of the call count.
    """

    name: str
    owner: object          # module or class that defines the attribute
    attr: str
    counters: tuple[str, ...] = ()
    calls_name: str = "calls"
    before: Callable | None = None
    after: Callable | None = None
    errors: tuple[tuple[type, str], ...] = ()


def _count_edges(stats, args, kwargs):
    g = args[0] if args else kwargs["g"]
    stats.bump("edges", g.m)


def _count_empty(stats, result):
    if not result:
        stats.bump("empty")


def _count_sets(stats, result):
    stats.bump("sets", len(result))


LAYERS: tuple[Layer, ...] = (
    Layer("vecsdp.solve_vector_coloring", vecsdp, "solve_vector_coloring",
          counters=("edges", "failed"), before=_count_edges,
          errors=((InfeasibleError, "failed"),)),
    Layer("vecsdp.solve_indset_sdp", vecsdp, "solve_indset_sdp"),
    Layer("vecsdp.well_aligned_subset", vecsdp, "well_aligned_subset",
          counters=("refused",), errors=((PromiseNotMetError, "refused"),)),
    Layer("vecsdp.neighborhood_reduce", vecsdp, "neighborhood_reduce"),
    Layer("indset.ak_independent_set", indset, "ak_independent_set"),
    Layer("indset.greedy_independent_set", indset, "greedy_independent_set"),
    Layer("rounding.kms_color", rounding, "kms_color"),
    Layer("rounding.kms_independent_set", rounding, "kms_independent_set"),
    Layer("rounding.round_once", rounding, "round_once",
          counters=("empty",), after=_count_empty),
    Layer("combined.combined_color", combined, "combined_color"),
    Layer("combined.color_three_fallback", combined, "color_three_fallback"),
    Layer("progress.progress_driver", progress, "progress_driver"),
    Layer("progress.ContractedGraph.merge", progress.ContractedGraph, "merge"),
    Layer("progress.ContractedGraph.delete", progress.ContractedGraph, "delete"),
    Layer("progress.ContractedGraph.quotient_graph", progress.ContractedGraph,
          "quotient_graph"),
    Layer("progress.build_candidate_collection", progress,
          "build_candidate_collection", counters=("sets",), after=_count_sets),
    Layer("testkit.brute_force_chromatic", testkit, "brute_force_chromatic"),
    Layer("graph.induced_subgraph", graph, "induced_subgraph"),
    Layer("graph.verify_coloring", graph, "verify_coloring"),
)

# The finder is reached through the progress_driver wrapper, not patched.
FINDER = Layer("combined.finder", None, "",
               counters=("same_color", "large_set", "colored"),
               calls_name="rounds")
_FINDER_RESULTS = ((SameColor, "same_color"), (LargeIndependentSet, "large_set"),
                   (Colored, "colored"))


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    return [(name, "s" if name.endswith(".self_s") else "count")
            for name in Tracer().metrics()]


class Tracer:
    """Spans and counters for one traced pass; patch with ``installed()``."""

    def __init__(self):
        self.stats = {layer.name: LayerStats() for layer in LAYERS + (FINDER,)}
        self._child_time: list[float] = []

    def _span(self, name: str, fn, args, kwargs):
        self._child_time.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - t0
            nested = self._child_time.pop()
            if self._child_time:
                self._child_time[-1] += elapsed
            stats = self.stats[name]
            stats.calls += 1
            stats.self_s += elapsed - nested

    def _wrap(self, layer: Layer, fn):
        stats = self.stats[layer.name]
        wrap_finder = layer.name == "progress.progress_driver"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer.before is not None:
                layer.before(stats, args, kwargs)
            if wrap_finder:
                args, kwargs = self._with_traced_finder(args, kwargs)
            try:
                result = self._span(layer.name, fn, args, kwargs)
            except Exception as exc:
                for exc_type, counter in layer.errors:
                    if isinstance(exc, exc_type):
                        stats.bump(counter)
                raise
            if layer.after is not None:
                layer.after(stats, result)
            return result

        return wrapper

    def _with_traced_finder(self, args, kwargs):
        # progress_driver(g, k, alpha_target, finder, budget=None)
        if len(args) > 3:
            args = args[:3] + (self._traced_finder(args[3]),) + args[4:]
        else:
            kwargs = dict(kwargs, finder=self._traced_finder(kwargs["finder"]))
        return args, kwargs

    def _traced_finder(self, finder):
        stats = self.stats[FINDER.name]

        def traced(cg):
            result = self._span(FINDER.name, finder, (cg,), {})
            for result_type, counter in _FINDER_RESULTS:
                if isinstance(result, result_type):
                    stats.bump(counter)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer for the duration of the block, then restore."""
        patched: list[tuple[object, str, object]] = []
        try:
            for layer in LAYERS:
                original = getattr(layer.owner, layer.attr)
                wrapper = self._wrap(layer, original)
                for owner, name in bindings(layer, original):
                    patched.append((owner, name, original))
                    setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in reversed(patched):
                setattr(owner, name, original)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS + (FINDER,):
            stats = self.stats[layer.name]
            out[f"{layer.name}.{layer.calls_name}"] = stats.calls
            out[f"{layer.name}.self_s"] = stats.self_s
            for counter in layer.counters:
                out[f"{layer.name}.{counter}"] = stats.counts.get(counter, 0)
        return out

    def total_self_s(self) -> float:
        return sum(stats.self_s for stats in self.stats.values())


def bindings(layer: Layer, original) -> list[tuple[object, str]]:
    """Every (owner, name) through which library code reaches ``original``."""
    if isinstance(layer.owner, type):
        return [(layer.owner, layer.attr)]
    out = []
    for mod_name, module in sorted(sys.modules.items()):
        if mod_name != "sdpcolor" and not mod_name.startswith("sdpcolor."):
            continue
        for name, value in sorted(vars(module).items()):
            if value is original:
                out.append((module, name))
    return out
