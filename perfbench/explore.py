"""The in-process workloads: ``explore-memory`` and ``explore-store``.

One pass is the paper's loop over every theme of the table, on a fresh
``Blaeu`` with no result cache (every map is a cold build)::

    themes -> for each theme:
        open -> (highlight -> zoom)* until the selection holds fewer than
        clara_threshold rows -> local_themes -> project -> k-override map
        -> suggest -> rollback

On the store, maps are approximate and every navigation action is
followed by ``refine()``; ``MAX_APPENDS`` slabs of rows are appended
with ``append_csv`` after the warm-up pass, so the timed passes explore
the grown table.

Every timed pass repeats the same actions on the same table, so each
action is timed once per pass; the timings reported are each action's
median over the passes (:func:`perfbench.common.median_of_windows`).
"""

from __future__ import annotations

import gc
import math
import shutil
import statistics
import time
from pathlib import Path

from perfbench import gen
from perfbench.common import (
    MAP_OPS,
    Ops,
    build_report,
    median_of_windows,
    median_timed,
    ms_gmean,
    ms_percentile,
    peak_rss_mb,
    ratio,
)
from perfbench.layers import LayerClock, overhead_pct, per_action
from perfbench.reference import (
    Tally,
    check_highlight,
    check_map,
    check_recovery,
    check_themes,
    evaluate,
    score_clusters,
)

#: Leaves smaller than this are never zoomed into.
MIN_ZOOM_LEAF = 100
MAX_ZOOMS = 6
#: Slabs appended to the store after the warm-up pass, before the timed
#: passes (so every timed pass explores the same table).
MAX_APPENDS = 2
#: Timed passes a run makes however slow the host is (an action's
#: median needs more than two).
MIN_TIMED_PASSES = 3
#: The engine's seed (the program's default).  ``--seed`` draws the
#: table's cells; the engine samples and clusters them with one fixed
#: seed, so the runs of every seed measure alike work.
ENGINE_SEED = 42
#: Each zoom aims at the leaf nearest this share of the current map...
ZOOM_SHARE = 0.25
#: ...and the last one (into a leaf below clara_threshold) at this size.
FINAL_ZOOM_ROWS = 300
#: Selections below this many rows are clustered by the exact PAM
#: k-sweep (the program's default is 1200).  The exact sweep costs the
#: square of its selection, and the last zoom's selection is whatever
#: leaf the data offers below the threshold: at 1200 one seed's pass
#: spent 600 ms on it and another's 190 ms, so a lower threshold keeps
#: the work of a pass alike from seed to seed.
CLARA_THRESHOLD = 600


def zoom_target(data_map, clara_threshold: int):
    """The leaf nearest (in log size) to ``ZOOM_SHARE`` of the map; once
    a leaf lies below ``clara_threshold``, the leaf nearest
    ``FINAL_ZOOM_ROWS``.  The last zoom's exact k-sweep costs the square
    of its selection, so aiming it at one size keeps the work of a pass
    alike from seed to seed."""
    leaves = [r for r in data_map.leaves() if r.n_rows >= MIN_ZOOM_LEAF]
    if not leaves:
        return None
    goal = math.log(ZOOM_SHARE * data_map.n_rows)
    if any(r.n_rows < clara_threshold for r in leaves):
        goal = math.log(FINAL_ZOOM_ROWS)
    return min(leaves, key=lambda r: (abs(math.log(r.n_rows) - goal), r.region_id))


class Explore:
    """One explore workload: set-up, timed passes, checks and report."""

    def __init__(self, seed: int, workdir: Path, store: bool) -> None:
        from repro.core.config import BlaeuConfig

        self.seed = seed
        self.workdir = workdir
        self.store = store
        self.spec = gen.STORE_SPEC if store else gen.MEMORY_SPEC
        self.config = BlaeuConfig(
            seed=ENGINE_SEED,
            count_mode="approximate" if store else "exact",
            clara_threshold=CLARA_THRESHOLD,
        )
        self.frame = gen.generate(self.spec, seed)
        self.tally = Tally()
        #: The warm-up pass and the appends; ``ops`` holds timed passes.
        self.setup_ops = Ops()
        self.ops = Ops()
        self.map_quality: list[tuple[float, float]] = []
        self.appended = 0
        self.ingest_seconds = 0.0
        #: Counters the program exposes, summed over passes.
        self.counters: dict[str, float] = {}
        #: The layer clock of a traced run (paused around appends).
        self.clock = None
        self.passes = 0
        self._table = None
        self._csv = workdir / "table.csv"
        if store:
            gen.write_csv_apart(self.frame, self._csv)
        #: Peak RSS before the program runs: interpreter, imports and the
        #: benchmark's own inputs (part of ``peak_rss_mb``).
        self.rss_inputs_mb = peak_rss_mb()

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------

    def setup(self) -> float:
        """Median time until the first action can be issued."""
        if not self.store:
            from repro import Blaeu

            def register():
                table = gen.to_table(self.frame)
                Blaeu(self.config).register(table)
                return table

            seconds, self._table = median_timed(register, repeats=7)
            return seconds
        from repro import Blaeu
        from repro.store.ingest import ingest_csv

        attempt = iter(range(100))
        ingest_times = []

        def ingest():
            target = self.workdir / f"store{next(attempt)}"
            started = time.perf_counter()
            ingest_csv(
                self._csv,
                target,
                name=self.spec.name,
                chunk_rows=gen.STORE_CHUNK_ROWS,
                partition_rows=gen.STORE_PARTITION_ROWS,
            )
            ingest_times.append(time.perf_counter() - started)
            Blaeu(self.config).load_store(target)
            return target

        seconds, self._store_dir = median_timed(ingest, repeats=3)
        self.ingest_seconds = statistics.median(ingest_times)
        for path in self.workdir.glob("store*"):
            if path != self._store_dir:
                shutil.rmtree(path)
        return seconds

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------

    def _engine(self):
        """A fresh engine for the next pass.

        Every pass runs the same engine seed, so a run that fits one
        pass more than another still measures the same mix of maps.
        """
        from repro import Blaeu

        config = self.config
        engine = Blaeu(config)
        if self.store:
            table = engine.load_store(self._store_dir)
        else:
            table = self._table
            engine.register(table)
        return engine, table, config

    def run(self, seconds: float) -> None:
        """Whole timed passes until ``seconds`` have gone by (at least
        ``MIN_TIMED_PASSES``).  The first call starts with an untimed
        warm-up pass and, on the store, the appends, so every timed pass
        repeats the same work on the same table."""
        if self.passes == 0:
            timed, self.ops = self.ops, self.setup_ops
            self._pass()
            self.passes += 1
            while self.store and self.appended < MAX_APPENDS:
                self._append()
            self.ops = timed
        started = time.perf_counter()
        first = self.passes
        while (
            self.passes - first < MIN_TIMED_PASSES
            or time.perf_counter() - started < seconds
        ):
            self._pass()
            self.ops.mark()
            self.passes += 1

    def _pass(self) -> None:
        from repro.table.predicates import Everything

        everything = Everything()
        # Garbage of the previous pass is collected here, not inside
        # whichever action happens to cross the collector's threshold.
        gc.collect()
        engine, table, config = self._engine()
        name = self.spec.name
        ops, frame, tally = self.ops, self.frame, self.tally

        def record_map(data_map, selection, where, whole_table=False):
            self.map_quality.append((data_map.silhouette, data_map.fidelity))
            check_map(data_map, frame, selection, tally, where)
            if whole_table:
                score_clusters(data_map, frame, tally)

        def refined(explorer, where):
            if explorer.needs_refine:
                data_map = ops.run("refine", explorer.refine)
                if data_map is not None:
                    check_map(data_map, frame, explorer.state.selection, tally, where)

        themes = ops.run("themes", engine.themes, name)
        if themes is None:
            return
        check_themes([t.columns for t in themes], frame, tally, "themes")
        explorer = engine.explore(name)
        for index, theme in enumerate(themes):
            where = f"pass {self.passes} theme {index}"
            opened = ops.run("open", explorer.open_theme, index)
            if opened is None:
                continue
            record_map(opened, everything, where, whole_table=True)
            refined(explorer, where + " refined")
            current = explorer.state.map
            for depth in range(MAX_ZOOMS):
                if current.n_rows < config.clara_threshold:
                    break
                leaf = zoom_target(current, config.clara_threshold)
                if leaf is None:
                    break
                highlight = ops.run("highlight", explorer.highlight, leaf.region_id)
                if highlight is None:
                    break
                rows = evaluate(explorer.state.selection, frame)
                rows &= evaluate(leaf.predicate, frame)
                check_highlight(
                    highlight.n_rows,
                    highlight.numeric_summaries,
                    highlight.category_counts,
                    frame,
                    rows,
                    tally,
                    f"{where} highlight {depth}",
                )
                zoomed = ops.run("zoom", explorer.zoom, leaf.region_id)
                if zoomed is None:
                    break
                record_map(zoomed, explorer.state.selection, f"{where} zoom {depth}")
                refined(explorer, f"{where} zoom {depth} refined")
                current = explorer.state.map
            ops.run("local_themes", explorer.local_themes)
            projected = ops.run("project", explorer.project, (index + 1) % len(themes))
            if projected is not None:
                record_map(projected, explorer.state.selection, f"{where} project")
                refined(explorer, f"{where} project refined")
            forced_k = 3 if opened.k == 2 else 2
            kmap = ops.run("kmap", engine.map, name, theme.columns, k=forced_k)
            if kmap is not None:
                record_map(kmap, everything, f"{where} k={forced_k}")
                if kmap.counts_status != "exact":
                    exact = ops.run(
                        "refine",
                        engine.map_builder.refine,
                        table,
                        theme.columns,
                        config=config,
                        k=forced_k,
                        current_map=kmap,
                    )
                    if exact is not None:
                        check_map(exact, frame, everything, tally, f"{where} k refined")
            ops.run("suggest", explorer.suggest)
            ops.run("rollback", explorer.rollback)
        graph, pipeline = engine.graph_builder.stats(), engine.map_builder.stats()
        self._count(
            graph_hits=graph["graph_cache_hits"],
            graph_calls=graph["graph_cache_hits"] + graph["graph_cache_misses"],
            code_hits=graph["code_cache_hits"],
            code_calls=graph["code_cache_hits"] + graph["code_cache_misses"],
            stage_hits=sum(pipeline["stage_hits"].values()),
            stage_misses=sum(pipeline["stage_misses"].values()),
            data_reads=getattr(table, "data_reads", 0),
            partitions_skipped=getattr(table, "partitions_skipped", 0),
        )

    def _count(self, **values: float) -> None:
        for name, value in values.items():
            self.counters[name] = self.counters.get(name, 0) + value

    def _append(self) -> None:
        """Append the next slab; its CSV is written outside the timing."""
        from repro.store.ingest import append_csv

        slab = gen.slab(self.spec, self.seed, self.appended)
        path = self.workdir / "slab.csv"
        gen.write_csv_apart(slab, path)
        if self.clock is not None:
            self.clock.paused = True
        self.ops.run("append", append_csv, path, self._store_dir)
        if self.clock is not None:
            self.clock.paused = False
        self.frame = self.frame.concat(slab)
        self.appended += 1

    # ------------------------------------------------------------------
    # Report
    # ------------------------------------------------------------------

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        typical = median_of_windows(self.ops.windows)

        def of(*types: str) -> list[float]:
            return [s for (_, op), s in typical.items() if op in types]

        actions = [s for (_, op), s in typical.items() if op not in Ops.NOT_ACTIONS]
        silhouettes = [s for s, _ in self.map_quality]
        fidelities = [f for _, f in self.map_quality]
        return {
            "setup_s": setup_s,
            "themes_ms": ms_percentile(of("themes"), 50),
            "map_ms.gmean": ms_gmean(of(*MAP_OPS)),
            "highlight_ms.gmean": ms_gmean(of("highlight")),
            # Actions per second of one pass, each action at its median.
            "actions_per_s": len(actions) / sum(actions),
            "peak_rss_mb": peak_rss_mb(),
            "map_silhouette": statistics.fmean(silhouettes) if silhouettes else 0.0,
            "map_fidelity": statistics.fmean(fidelities) if fidelities else 0.0,
        }

    def extras(self) -> dict[str, float]:
        """Metrics that live beside the layers: tails, refine, append."""
        ops = self.ops
        rows = gen.STORE_SLAB_ROWS
        appends = self.setup_ops.durations("append")
        return {
            "map_ms.p90": ms_percentile(ops.durations(*MAP_OPS), 90),
            "refine_ms.p50": ms_percentile(ops.durations("refine"), 50)
            if ops.durations("refine")
            else 0.0,
            "append_rows_per_s": rows / statistics.median(appends) if appends else 0.0,
            "store.append_ms": 1000.0 * statistics.median(appends) if appends else 0.0,
            "store.ingest_ms": 1000.0 * self.ingest_seconds,
        }


def run_explore(args, workdir: Path) -> dict[str, object]:
    """One run: untraced, or half untraced and half traced (``--trace 1``)."""
    from repro.obs.metrics import get_metrics

    workload = Explore(args.seed, workdir, store=args.workload == "explore-store")
    setup_s = workload.setup()
    if not args.trace:
        workload.run(args.seconds)
        metrics = workload.end_to_end(setup_s)
        check_recovery(workload.tally)
        typical = median_of_windows(workload.ops.windows)
        extra = {
            "rss_inputs_mb": workload.rss_inputs_mb,
            # Each action of a timed pass, at its median over the passes.
            "action_ms": {
                f"{i}:{op}": 1000.0 * s for (i, op), s in sorted(typical.items())
            },
        }
        ops_list = [workload.setup_ops, workload.ops]
        return build_report(workload.tally, metrics, ops_list, extra)

    half = args.seconds / 2.0
    workload.run(half)
    untraced = workload.end_to_end(setup_s)
    extras = workload.extras()
    plain_ops = workload.ops
    workload.ops, workload.counters = Ops(), {}
    registry = get_metrics()
    scanned = registry.counter("blaeu_store_partitions_scanned_total")
    workload.clock = LayerClock().install()
    try:
        workload.run(half)
    finally:
        workload.clock.restore()
    scanned = registry.counter("blaeu_store_partitions_scanned_total") - scanned
    actions, busy = workload.ops.actions()
    layers = workload.clock.snapshot()
    count = workload.counters.get
    skipped = count("partitions_skipped", 0)
    stage_hits, stage_misses = count("stage_hits", 0), count("stage_misses", 0)
    metrics = {
        **per_action(layers, actions),
        "pipeline.stage_hits": stage_hits,
        "pipeline.stage_misses": stage_misses,
        "pipeline.stage_hit_ratio": ratio(stage_hits, stage_hits + stage_misses),
        "graph.cache_hit_ratio": ratio(count("graph_hits", 0), count("graph_calls", 0)),
        "graph.code_hit_ratio": ratio(count("code_hits", 0), count("code_calls", 0)),
        "store.data_reads": count("data_reads", 0),
        "store.partitions_scanned": scanned,
        "store.partitions_skipped": skipped,
        "store.prune_ratio": ratio(skipped, skipped + scanned),
        **extras,
        "unattributed_ms": 1000.0 * (busy - layers["covered"]) / max(actions, 1),
        "bench.trace_overhead_pct": overhead_pct(layers, busy),
    }
    check_recovery(workload.tally)
    summary = {k: layers[k] for k in ("seconds", "calls", "covered")}
    extra = {"untraced_half": untraced, "layer_snapshot": summary}
    ops_list = [workload.setup_ops, plain_ops, workload.ops]
    return build_report(workload.tally, metrics, ops_list, extra)
