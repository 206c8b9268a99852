"""Per-layer self times, measured from outside the program.

:class:`LayerTracer` keeps a stack of open spans.  When a wrapped call
returns, its duration is charged to its layer's self time minus whatever
its wrapped children took, and the full duration is charged to the
parent as child time.  Self times therefore never double count, and the
sum of all self times equals the time covered by top-level spans.

:func:`install` wraps a handful of stage-level entry points per unit
(synthesis, filter, profiling, classification, placement, replay,
accounting, stores, ``run`` and ``execute``).  Per-episode calls such as
``InOrderWindowCore.run_episode`` are deliberately left alone: there are
about a million of them per sweep, and wrapping them inflates replay.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Callable

#: Layers reported as ``<layer>.self_s`` and ``<layer>.calls``.
LAYERS = ("trace", "cpu.filter", "moca.profile", "moca.classify",
          "moca.placement", "replay", "sim", "sim.metrics",
          "store.stream", "store.result", "engine")


class LayerTracer:
    """Self time, call count and work counts per named layer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        #: Work done per layer (accesses, requests, hits, ...).
        self.counts: Counter = Counter()
        #: Child time accumulated by each open span; slot 0 stands for
        #: the caller outside every span.
        self._child = [0.0]

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with every call charged to ``layer``."""
        clock = self.clock
        stack = self._child
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self_s[layer] += dur - stack.pop()
                calls[layer] += 1
                stack[-1] += dur

        return traced

    def report(self, wall_s: float) -> dict[str, float]:
        """``<layer>.self_s`` / ``<layer>.calls`` plus ``unaccounted_s``.

        ``unaccounted_s`` is the part of ``wall_s`` no layer claims; it
        is negative only if the self-time arithmetic is broken.
        """
        out: dict[str, float] = {}
        for layer in sorted(self.calls):
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        out["unaccounted_s"] = wall_s - sum(self.self_s.values())
        return out


def _patch(undo: list, owner, name: str, replacement) -> None:
    undo.append((owner, name, owner.__dict__[name]))
    setattr(owner, name, replacement)


def install(tracer: LayerTracer) -> Callable[[], None]:
    """Wrap the program's stage-level calls; returns the undo function.

    Besides timing, the wrappers count the work each layer does:
    ``trace.accesses``, ``cpu.filter.accesses``, ``replay.requests``,
    store gets, hits and puts, and ``trace.redundant_builds`` --
    synthesis of an (app, input, length) whose miss stream the stream
    store already served, or which this process already synthesized.
    """
    from repro.cpu.core import InOrderWindowCore
    from repro.cpu.hierarchy import CacheHierarchy
    from repro.experiments import cache as result_cache
    from repro.experiments import engine
    from repro.moca import allocation, framework, profiler
    from repro.sim import metrics, multi, single, spec, stream_store
    from repro.trace.builder import TraceBuilder
    from repro.util.rng import derive_seed

    counts = tracer.counts
    undo: list = []

    def layer(owner, name: str, label: str, before=None) -> None:
        fn = tracer.wrap(label, owner.__dict__[name])
        if before is not None:
            inner = fn

            @functools.wraps(inner)
            def fn(*args, **kwargs):
                before(*args, **kwargs)
                return inner(*args, **kwargs)
        _patch(undo, owner, name, fn)

    # -- trace synthesis, with the redundant-build check.  A trace is
    # identified by the seed of the RNG stream it is drawn from, which
    # repro.workloads.inputs derives from ("trace", app, input, length).
    synthesized: set = set()
    served: set = set()
    build = tracer.wrap("trace", TraceBuilder.__dict__["build"])

    @functools.wraps(build)
    def traced_build(self, n_accesses, rng, *args, **kwargs):
        seq = getattr(rng.bit_generator, "seed_seq", None)
        ident = getattr(seq, "entropy", None)
        redundant = ident is not None and (ident in synthesized
                                           or ident in served)
        t0 = tracer.clock()
        try:
            return build(self, n_accesses, rng, *args, **kwargs)
        finally:
            counts["trace.accesses"] += n_accesses
            if ident is not None:
                synthesized.add(ident)
            if redundant:
                counts["trace.redundant_builds"] += 1
                counts["trace.redundant_s"] += tracer.clock() - t0

    _patch(undo, TraceBuilder, "build", traced_build)

    # -- cache filter
    def count_filter(hierarchy, trace, *args, **kwargs):
        counts["cpu.filter.accesses"] += len(trace)

    layer(CacheHierarchy, "filter_trace", "cpu.filter", count_filter)
    layer(CacheHierarchy, "filter_chunked", "cpu.filter", count_filter)

    # -- MOCA offline stage
    layer(profiler.MemoryObjectProfiler, "profile_trace", "moca.profile")
    layer(framework.MocaFramework, "instrument", "moca.classify")
    layer(framework.MocaFramework, "instrument_many", "moca.classify")

    # -- placement and accounting: rebound where imported by name too
    placement = tracer.wrap("moca.placement",
                            allocation.__dict__["plan_placement"])
    for module in (allocation, single, multi, profiler):
        _patch(undo, module, "plan_placement", placement)
    collect = tracer.wrap("sim.metrics", metrics.__dict__["collect_metrics"])
    for module in (metrics, single, multi):
        _patch(undo, module, "collect_metrics", collect)

    # -- replay.  Requests count only when run_to_completion drains the
    # core itself; a mix's cores are drained episode by episode by the
    # interleave in repro.sim.multi, whose time is the ``sim`` layer's.
    pending: dict[int, int] = {}

    def note_core(core, stream, *args, **kwargs):
        pending[id(core)] = len(stream)

    def count_requests(core, *args, **kwargs):
        n = pending.pop(id(core), 0)
        if not core.finished:
            counts["replay.requests"] += n

    layer(InOrderWindowCore, "__init__", "replay", note_core)
    layer(InOrderWindowCore, "run_to_completion", "replay", count_requests)

    # -- stores
    stream_get = tracer.wrap("store.stream.get",
                             stream_store.StreamStore.__dict__["get"])

    @functools.wraps(stream_get)
    def traced_stream_get(self, key, *args, **kwargs):
        hit = stream_get(self, key, *args, **kwargs)
        if hit is not None:
            counts["store.stream.hits"] += 1
            if key.get("schema") == "miss-stream":
                served.add(derive_seed("trace", key["app"], key["input"],
                                       key["n_accesses"]))
        return hit

    _patch(undo, stream_store.StreamStore, "get", traced_stream_get)
    layer(stream_store.StreamStore, "put", "store.stream.put")
    layer(result_cache.ResultCache, "get", "store.result.get")
    layer(result_cache.ResultCache, "put", "store.result.put")

    # -- simulation and engine
    _patch(undo, engine, "run", tracer.wrap("sim", spec.__dict__["run"]))
    _patch(undo, engine, "execute",
           tracer.wrap("engine", engine.__dict__["execute"]))

    def uninstall() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
        undo.clear()

    return uninstall


def layer_metrics(tracer: LayerTracer, wall_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced pass, by name.

    The two stores report as layers ``store.stream`` and
    ``store.result`` (gets and puts together); the get/put split is in
    :func:`store_split`, which is diagnostic only because a store that
    is never written reads exactly 0 s on every run.
    """
    c = tracer.counts
    merged = LayerTracer()
    for layer in tracer.calls:
        name = layer.rsplit(".", 1)[0] if layer.startswith("store.") \
            else layer
        merged.self_s[name] += tracer.self_s[layer]
        merged.calls[name] += tracer.calls[layer]
    for name in LAYERS:
        merged.calls[name] += 0
    out = merged.report(wall_s)
    gets = tracer.calls["store.stream.get"]
    out["store.stream.hit_ratio"] = (c["store.stream.hits"] / gets
                                     if gets else 0.0)
    for name in ("trace", "cpu.filter"):
        secs = tracer.self_s[name]
        out[f"{name}.accesses_per_s"] = (c[f"{name}.accesses"] / secs
                                         if secs else 0.0)
    secs = tracer.self_s["replay"]
    out["replay.requests_per_s"] = (c["replay.requests"] / secs
                                    if secs else 0.0)
    out["trace.redundant_builds"] = c["trace.redundant_builds"]
    return out


def store_split(tracer: LayerTracer) -> dict[str, float]:
    """Seconds and calls of each store operation, plus redundant synthesis."""
    out = {}
    for store in ("store.stream", "store.result"):
        for op in ("get", "put"):
            out[f"{store}.{op}_s"] = tracer.self_s[f"{store}.{op}"]
            out[f"{store}.{op}s"] = tracer.calls[f"{store}.{op}"]
    out["trace.redundant_s"] = tracer.counts["trace.redundant_s"]
    return out
