"""Per-layer timing from outside the program.

:class:`LayerClock` replaces each layer's public entry points with a
timed wrapper, patched under the name its caller looks it up by (a
module attribute or a class attribute), and restores the originals on
:meth:`LayerClock.restore`.  A layer's time is inclusive, but a call
nested inside another call of the *same* layer is not counted twice;
``covered`` accumulates only outermost calls (no enclosing layer on
the thread), so an action's wall time minus ``covered`` is the time no
layer accounts for.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from collections import defaultdict


def _targets() -> list[tuple[object, str, str]]:
    """``(owner, attribute, layer)`` for every wrapped entry point."""
    from importlib import import_module

    from repro.cluster.silhouette import SharedSilhouette
    from repro.graph.dependency import GraphBuilder
    from repro.server.session import SessionManager
    from repro.service.app import BlaeuService
    from repro.store.artifacts import ArtifactCache
    from repro.store.stored import StoredTable
    from repro.table.table import Table

    # Modules by path: ``repro.cluster`` re-exports a function ``clara``
    # that shadows the submodule of the same name.
    clara_module = import_module("repro.cluster.clara")
    stages = import_module("repro.cluster.stages")
    pipeline = import_module("repro.core.pipeline")
    recommend = import_module("repro.guide.recommend")
    MapPipeline = pipeline.MapPipeline
    return [
        (MapPipeline, "sample_artifact", "pipeline.sample"),
        (MapPipeline, "space_artifact", "pipeline.preprocess"),
        (MapPipeline, "distance_artifact", "pipeline.distances"),
        (MapPipeline, "cluster_artifact", "pipeline.cluster"),
        (MapPipeline, "describe_artifact", "pipeline.describe"),
        (pipeline, "_exact_regions", "pipeline.count"),
        (pipeline, "_approximate_regions", "pipeline.count"),
        (stages, "select_k_points", "cluster.kselect"),
        (stages, "pam", "cluster.pam"),
        (clara_module, "pam", "cluster.pam"),
        (stages, "clara", "cluster.clara"),
        (SharedSilhouette, "__init__", "cluster.silhouette"),
        (SharedSilhouette, "score", "cluster.silhouette"),
        (pipeline, "leaf_silhouettes", "cluster.silhouette"),
        (pipeline, "fit_tree", "tree.fit"),
        (pipeline, "prune_for_legibility", "tree.prune"),
        (GraphBuilder, "build", "graph.build"),
        (recommend, "suggest_actions", "guide.suggest"),
        (Table, "select", "table.select"),
        (StoredTable, "scan_mask", "store.scan"),
        (StoredTable, "take", "store.gather"),
        (StoredTable, "take_columns", "store.gather"),
        (StoredTable, "top_k_sample", "store.gather"),
        (SessionManager, "handle", "service.handle"),
        (BlaeuService, "_handle_map", "service.handle"),
        (ArtifactCache, "get", "cache.l2_read"),
        (ArtifactCache, "put", "cache.l2_write"),
    ]


class LayerClock:
    """Every timed call into a layer, across threads."""

    def __init__(self) -> None:
        #: ``(layer, start, seconds, outermost, nested_in_same_layer)``;
        #: ``start`` is ``time.perf_counter()``, a system-wide monotonic
        #: clock, so a client process can cut the events at its own
        #: timestamps.
        self.events: list[tuple[str, float, float, bool, bool]] = []
        #: While set, wrapped calls run untimed (work outside the actions).
        self.paused = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _record(self, layer, outer, nested, started, seconds) -> None:
        with self._lock:
            self.events.append((layer, started, seconds, outer, nested))

    def _wrap(self, original, layer: str):
        clock = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if clock.paused:
                return original(*args, **kwargs)
            stack = getattr(clock._local, "stack", None)
            if stack is None:
                stack = clock._local.stack = []
            outer, nested = not stack, layer in stack
            stack.append(layer)
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
                clock._record(
                    layer, outer, nested, started, time.perf_counter() - started
                )

        return timed

    def install(self) -> "LayerClock":
        """Patch every layer entry point; returns ``self``."""
        for owner, name, layer in _targets():
            original = inspect.getattr_static(owner, name)
            setattr(owner, name, self._wrap(original, layer))
            self._patches.append((owner, name, original))
        self._install_pool_wait()
        return self

    def _install_pool_wait(self) -> None:
        """Time from a pool submission to the job starting on a thread."""
        from repro.service.pool import WorkerPool

        original = inspect.getattr_static(WorkerPool, "run")
        clock = self

        @functools.wraps(original)
        async def run(pool, fn, *args, **kwargs):
            submitted = time.perf_counter()

            def begin(*inner):
                waited = time.perf_counter() - submitted
                clock._record("service.pool_wait", False, False, submitted, waited)
                return fn(*inner)

            return await original(pool, begin, *args, **kwargs)

        WorkerPool.run = run
        self._patches.append((WorkerPool, "run", original))

    def restore(self) -> None:
        """Put every original entry point back."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def snapshot(self) -> dict[str, object]:
        """Totals of every call recorded so far."""
        with self._lock:
            return aggregate(list(self.events))


def aggregate(events) -> dict[str, object]:
    """Per-layer seconds, calls and per-call samples, and outermost cover."""
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    samples: dict[str, list[float]] = defaultdict(list)
    covered = 0.0
    for layer, _, duration, outer, nested in sorted(events, key=lambda e: e[1]):
        calls[layer] += 1
        if not nested:
            seconds[layer] += duration
            samples[layer].append(duration)
        if outer:
            covered += duration
    return {
        "seconds": dict(seconds),
        "calls": dict(calls),
        "samples": dict(samples),
        "covered": covered,
    }


#: Wall-time layers reported as ms per action, with the name they carry.
TIMED_LAYERS = (
    ("pipeline.sample_ms", "pipeline.sample"),
    ("pipeline.preprocess_ms", "pipeline.preprocess"),
    ("pipeline.distances_ms", "pipeline.distances"),
    ("pipeline.cluster_ms", "pipeline.cluster"),
    ("pipeline.describe_ms", "pipeline.describe"),
    ("pipeline.count_ms", "pipeline.count"),
    ("cluster.kselect_ms", "cluster.kselect"),
    ("cluster.pam_ms", "cluster.pam"),
    ("cluster.clara_ms", "cluster.clara"),
    ("cluster.silhouette_ms", "cluster.silhouette"),
    ("tree.fit_ms", "tree.fit"),
    ("tree.prune_ms", "tree.prune"),
    ("graph.build_ms", "graph.build"),
    ("guide.suggest_ms", "guide.suggest"),
    ("table.select_ms", "table.select"),
    ("store.scan_ms", "store.scan"),
    ("store.gather_ms", "store.gather"),
    ("cache.l2_read_ms", "cache.l2_read"),
    ("cache.l2_write_ms", "cache.l2_write"),
)


def per_action(snapshot: dict[str, object], actions: int) -> dict[str, float]:
    """Each timed layer's milliseconds per action, plus PAM call counts."""
    seconds = snapshot["seconds"]
    calls = snapshot["calls"]
    out = {
        metric: 1000.0 * seconds.get(layer, 0.0) / max(actions, 1)
        for metric, layer in TIMED_LAYERS
    }
    out["cluster.pam_calls"] = float(calls.get("cluster.pam", 0))
    return out


def wrapper_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one timed wrapper adds to a call, measured on this host.

    The best of ``repeats`` rounds of ``calls`` calls to a no-op, wrapped
    and bare; the events of each round are dropped before the next.
    """
    clock = LayerClock()

    def bare():
        return None

    timed = clock._wrap(bare, "bench.calibrate")
    best = {bare: float("inf"), timed: float("inf")}
    for _ in range(repeats):
        for fn in best:
            started = time.perf_counter()
            for _ in range(calls):
                fn()
            best[fn] = min(best[fn], (time.perf_counter() - started) / calls)
        clock.events.clear()
    return max(best[timed] - best[bare], 0.0)


def overhead_pct(snapshot: dict[str, object], busy: float) -> float:
    """The wrappers' share of the traced action time, in percent: every
    recorded call times :func:`wrapper_cost`, over the summed action
    latency ``busy`` (seconds)."""
    calls = sum(snapshot["calls"].values())
    return 100.0 * calls * wrapper_cost() / busy if busy else 0.0
