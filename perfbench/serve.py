"""The ``serve-replay`` workload: one client replaying sessions over /v1.

One ``blaeu serve`` process (``--threads 2``, an on-disk L2 cache tier,
no prefetch) serves two generated CSV tables.  One client on one
keep-alive connection replays a seeded trace of sessions: each session
asks for the table's themes, opens a theme, highlights and zooms into a
leaf, projects onto the next theme, rolls back, asks the stateless map
resource for a k-override map and for a map over a column subset never
asked for before, and closes.  Session paths are drawn with a skew from
a small catalogue, so later sessions revisit earlier maps; the L1 cache
holds fewer entries than the catalogue's maps need, so evicted maps come
back from the disk tier.  The client never follows a redirect, and any
non-2xx reply is a failed operation.

After the timed replay, the same sessions are replayed in-process
through ``Blaeu`` (same default config, same seed) and every served map
must equal the in-process one; highlights, region counts and themes are
checked against the reference.
"""

from __future__ import annotations

import http.client
import itertools
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from perfbench import gen
from perfbench.common import (
    MAP_OPS,
    Ops,
    build_report,
    ms_gmean,
    ms_percentile,
    ratio,
)
from perfbench.layers import aggregate, overhead_pct, per_action
from perfbench.reference import (
    WIRE_TOL,
    Tally,
    check_highlight,
    check_map,
    check_recovery,
    check_themes,
    evaluate,
    score_clusters,
)

#: L1 (in-memory) cache entries; a cold map stores about six.
L1_ENTRIES = 48
#: Server boots per run; ``setup_s`` is their median.
BOOTS = 5
BOOT_TIMEOUT_S = 60.0
SESSION_SKEW = 1.3
#: Every this many sessions, one asks for a map never built before.
FRESH_EVERY = 20
#: Requests whose reply is a map (``fresh`` is the never-built subset).
SERVED_MAPS = (*MAP_OPS, "fresh")


def _catalogue(frames: dict[str, gen.Frame]) -> list[tuple[str, int, int, int]]:
    """Every session path: (table, theme index, leaf rank, forced k)."""
    paths = []
    for name, frame in frames.items():
        for theme in range(len(frame.groups)):
            for leaf_rank in (0, 1):
                paths.append((name, theme, leaf_rank, 2 + leaf_rank))
    return paths


def make_trace(frames: dict[str, gen.Frame], seed: int, sessions: int = 10_000):
    """The seeded warm-up and session lists.

    The warm-up visits every catalogue path once, so the timed sessions
    start on a filled cache; the timed sessions draw paths with a skew.
    Every ``FRESH_EVERY``-th session also asks for a map over a column
    subset no earlier session used.
    """
    rng = np.random.default_rng((seed, 31))
    paths = _catalogue(frames)
    order = rng.permutation(len(paths))
    weights = 1.0 / np.arange(1, len(paths) + 1) ** SESSION_SKEW
    weights /= weights.sum()
    picks = order[rng.choice(len(paths), size=sessions, p=weights)]
    picks = np.concatenate([np.arange(len(paths)), picks])
    subsets = {
        name: [
            combo
            for size in (2, 3, 4, 5)
            for combo in itertools.combinations(frame.order, size)
        ]
        for name, frame in frames.items()
    }
    for columns in subsets.values():
        rng.shuffle(columns)
    used = {name: 0 for name in frames}
    trace = []
    for index, pick in enumerate(picks):
        table, theme, leaf_rank, k = paths[pick]
        fresh = None
        if index % FRESH_EVERY == 0:
            fresh = subsets[table][used[table] % len(subsets[table])]
            used[table] += 1
        trace.append(
            {
                "session": f"s{index}",
                "table": table,
                "theme": int(theme),
                "leaf_rank": int(leaf_rank),
                "k": int(k),
                "fresh_columns": list(fresh) if fresh else None,
            }
        )
    warmup = trace[: len(paths)]
    for step in warmup:
        step["session"] = "w" + step["session"]
    return warmup, trace[len(paths) :]


def _leaf(map_json: dict, rank: int) -> str | None:
    """The zoom target: the ``rank``-th largest zoomable leaf."""
    leaves = []

    def walk(node):
        children = node.get("children")
        if children:
            for child in children:
                walk(child)
        else:
            leaves.append(node)

    walk(map_json["root"])
    leaves = [leaf for leaf in leaves if leaf["value"] >= 40]
    if not leaves:
        return None
    leaves.sort(key=lambda leaf: (-leaf["value"], leaf["id"]))
    return leaves[min(rank, len(leaves) - 1)]["id"]


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------


class Server:
    """One ``blaeu serve`` process, plain or under the layer launcher."""

    def __init__(self, workdir: Path, csvs: list[Path], tag: str, traced: bool):
        self.port_file = workdir / f"port-{tag}"
        self.layers_file = workdir / f"layers-{tag}.json"
        cache_dir = workdir / f"cache-{tag}"
        serve_args = [
            *map(str, csvs),
            *("--threads", "2", "--port", "0"),
            *("--cache-dir", str(cache_dir), "--cache-size", str(L1_ENTRIES)),
            *("--port-file", str(self.port_file)),
        ]
        if traced:
            launcher = str(Path(__file__).with_name("launcher.py"))
            layers = ("--layers-out", str(self.layers_file), "--")
            command = [sys.executable, launcher, *layers, *serve_args]
        else:
            command = [sys.executable, "-m", "repro", "serve", *serve_args]
        self.log = open(workdir / f"server-{tag}.log", "wb")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=self.log, stderr=subprocess.STDOUT, cwd=workdir
        )
        try:
            self.port = self._wait_port()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.boot_seconds = time.perf_counter() - started

    def _wait_port(self) -> int:
        deadline = time.perf_counter() + BOOT_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError("server exited during boot")
            if self.port_file.exists():
                return int(self.port_file.read_text())
            time.sleep(0.002)
        raise RuntimeError("server did not announce its port")

    def _wait_healthy(self) -> None:
        deadline = time.perf_counter() + BOOT_TIMEOUT_S
        while time.perf_counter() < deadline:
            connection = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=5
            )
            try:
                connection.request("GET", "/healthz")
                if connection.getresponse().status == 200:
                    return
            except OSError:
                time.sleep(0.002)
            finally:
                connection.close()
        raise RuntimeError("server never answered /healthz")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


class Client:
    """One keep-alive connection; records every request as an operation."""

    def __init__(self, port: int, ops: Ops) -> None:
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=120
        )
        self.ops = ops
        #: Latency of every request that ran on the server's pool, in order.
        self.pooled: list[float] = []
        #: When the timed sessions began (after the warm-up), and the
        #: server's /metrics at that moment.
        self.timed_from = 0.0
        self.exposition_before: dict[str, float] = {}

    def call(self, op: str, method: str, path: str, body: dict | None = None):
        """One request; returns the JSON reply, or None on a non-2xx reply."""
        self.ops.attempted[op] += 1
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        started = time.perf_counter()
        try:
            self.connection.request(method, path, body=payload, headers=headers)
            response = self.connection.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as error:
            self.ops.failed[op] += 1
            self.ops.errors.append(f"{op} {path}: {error!r}")
            self.connection.close()
            return None
        seconds = time.perf_counter() - started
        if not 200 <= response.status < 300:
            self.ops.failed[op] += 1
            if len(self.ops.errors) < 5:
                reply = f"HTTP {response.status} {raw[:200]!r}"
                self.ops.errors.append(f"{op} {path}: {reply}")
            return None
        self.ops.record(op, seconds)
        self.pooled.append(seconds)
        return json.loads(raw)

    def scrape(self, path: str) -> str:
        self.connection.request("GET", path)
        return self.connection.getresponse().read().decode()

    def close(self) -> None:
        self.connection.close()


def replay_session(client: Client, step: dict, log: list) -> None:
    """Send one session's requests; ``log`` keeps what came back."""
    table, sid, theme = step["table"], step["session"], step["theme"]
    got = {"step": step}

    def command(name: str, **args):
        body = {"session": sid, **args}
        return client.call(name, "POST", f"/v1/commands/{name}", body)

    got["themes"] = client.call("themes", "GET", f"/v1/tables/{table}/themes")
    got["open"] = opened = command("open", table=table, theme=theme)
    if opened is not None:
        got["leaf"] = leaf = _leaf(opened["map"], step["leaf_rank"])
        if leaf is not None:
            got["highlight"] = command("highlight", region=leaf)
            got["zoom"] = command("zoom", region=leaf)
        n_themes = len(got["themes"]["themes"]["themes"]) if got["themes"] else 1
        got["project_theme"] = (theme + 1) % n_themes
        got["project"] = command("project", theme=got["project_theme"])
        command("rollback")
        command("close")
    resource = f"/v1/tables/{table}/map"
    got["kmap"] = client.call("kmap", "GET", f"{resource}?theme={theme}&k={step['k']}")
    got["fresh"] = None
    if step["fresh_columns"]:
        columns = ",".join(step["fresh_columns"])
        got["fresh"] = client.call("fresh", "GET", f"{resource}?columns={columns}")
    log.append(got)


def replay(server: Server, trace: tuple[list, list], seconds: float):
    """The untimed warm-up, then whole sessions until ``seconds`` have
    gone by; returns the timed ops, the warm-up ops, the client and the
    warm-up and timed logs."""
    warmup, sessions = trace
    warm_ops, ops = Ops(), Ops()
    client = Client(server.port, warm_ops)
    warm_log: list = []
    for step in warmup:
        replay_session(client, step, warm_log)
    client.ops, client.pooled = ops, []
    client.exposition_before = _metric_lines(client.scrape("/metrics"))
    log: list = []
    started = client.timed_from = time.perf_counter()
    for index, step in enumerate(sessions, 1):
        replay_session(client, step, log)
        if index % FRESH_EVERY == 0:
            # Each window holds FRESH_EVERY sessions and one fresh map.
            ops.mark()
            if time.perf_counter() - started >= seconds:
                break
    else:
        raise RuntimeError("the trace ran out before the run ended")
    return ops, warm_ops, client, warm_log, log


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def _answers(got: dict) -> str:
    """A session's served answers, minus the session id and fresh map."""

    def part(name: str, field: str):
        reply = got.get(name)
        return reply[field] if reply else None

    return json.dumps(
        [
            part("themes", "themes"),
            part("open", "map"),
            got.get("leaf"),
            part("highlight", "highlight"),
            part("zoom", "map"),
            part("project", "map"),
            part("kmap", "map"),
        ],
        sort_keys=True,
    )


def verify(csvs: list[Path], frames: dict, log: list, tally: Tally) -> None:
    """Check every served answer against ``Blaeu`` run in-process.

    The first session on each catalogue path is replayed in-process and
    every answer compared and recounted; a later session on the same
    path must return exactly the answers the first one did.  Every
    fresh-subset map is built in-process and compared.
    """
    from repro import Blaeu
    from repro.core.config import BlaeuConfig
    from repro.service.cache import LRUCache
    from repro.table.predicates import Everything
    from repro.viz.export import export_map_json, export_themes_json

    engine = Blaeu(BlaeuConfig())
    engine.set_map_cache(LRUCache(max_size=100_000))
    for path in csvs:
        engine.load_csv(path)
    verified: dict[tuple, str] = {}

    def check(data_map, served, selection, frame, where, whole=False):
        if served is not None and json.loads(export_map_json(data_map)) != served:
            tally.fail(f"{where}: served map differs from the in-process map")
        check_map(data_map, frame, selection, tally, where)
        if whole:
            score_clusters(data_map, frame, tally)

    for got in log:
        step = got["step"]
        table, theme, where = step["table"], step["theme"], step["session"]
        frame = frames[table]
        if step["fresh_columns"]:
            fresh = engine.map(table, tuple(step["fresh_columns"]))
            if got["fresh"] is not None and got["fresh"]["map"] != json.loads(
                json.dumps(fresh.to_dict())
            ):
                tally.fail(f"{where}: served fresh map differs from in-process")
            check_map(fresh, frame, Everything(), tally, f"{where} fresh")
        path = (table, theme, step["leaf_rank"], step["k"])
        if path in verified:
            if _answers(got) != verified[path]:
                tally.fail(f"{where}: answers differ from an earlier visit")
            continue
        verified[path] = _answers(got)
        themes = engine.themes(table)
        if got["themes"] is not None:
            if json.loads(export_themes_json(themes)) != got["themes"]["themes"]:
                tally.fail(f"{where}: served themes differ from in-process")
            check_themes([t.columns for t in themes], frame, tally, table)
        if got["open"] is not None:
            explorer = engine.explore(table)
            opened = explorer.open_theme(theme)
            check(opened, got["open"]["map"], Everything(), frame, where, True)
            leaf = got.get("leaf")
            expected = _leaf(json.loads(export_map_json(opened)), step["leaf_rank"])
            if expected != leaf:
                tally.fail(f"{where}: zoom target {leaf}, reference {expected}")
            if leaf is not None:
                region = opened.region(leaf)
                if got.get("highlight") is not None:
                    served = got["highlight"]["highlight"]
                    check_highlight(
                        served["n_rows"],
                        served["numeric"],
                        served["categories"],
                        frame,
                        evaluate(region.predicate, frame),
                        tally,
                        f"{where} highlight",
                        absolute=WIRE_TOL,
                    )
                zoomed = explorer.zoom(leaf)
                served = got["zoom"]["map"] if got.get("zoom") else None
                check(zoomed, served, explorer.state.selection, frame, where)
            projected = explorer.project(got["project_theme"])
            served = got["project"]["map"] if got.get("project") else None
            check(projected, served, explorer.state.selection, frame, where)
        kmap = engine.map(table, tuple(themes[theme].columns), k=step["k"])
        if got["kmap"] is not None and got["kmap"]["map"] != json.loads(
            json.dumps(kmap.to_dict())
        ):
            tally.fail(f"{where}: served k-override map differs from in-process")
        check_map(kmap, frame, Everything(), tally, f"{where} k")


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


def _metric_lines(text: str) -> dict[str, float]:
    out: dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            try:
                out[name] = float(value)
            except ValueError:
                pass
    return out


def _summary(ops: Ops, setup_s: float, rss: float, log: list) -> dict[str, float]:
    quality = [
        (got[op]["map"]["silhouette"], got[op]["map"]["fidelity"])
        for got in log
        for op in SERVED_MAPS
        if got.get(op)
    ]
    return {
        "setup_s": setup_s,
        "themes_ms": ms_percentile(ops.durations("themes"), 50),
        "map_ms.gmean": ms_gmean(ops.durations(*SERVED_MAPS)),
        "highlight_ms.gmean": ms_gmean(ops.durations("highlight")),
        "actions_per_s": ops.rate(),
        "peak_rss_mb": rss,
        "map_silhouette": statistics.fmean(q[0] for q in quality),
        "map_fidelity": statistics.fmean(q[1] for q in quality),
    }


def run_serve(args, workdir: Path) -> dict[str, object]:
    frames = {spec.name: gen.generate(spec, args.seed) for spec in gen.SERVE_SPECS}
    csvs = []
    for name, frame in frames.items():
        csvs.append(workdir / f"{name}.csv")
        gen.write_csv(frame, csvs[-1])
    trace = make_trace(frames, args.seed)
    boots = []
    for attempt in range(BOOTS - 1):
        server = Server(workdir, csvs, f"boot{attempt}", traced=False)
        boots.append(server.boot_seconds)
        server.stop()
    half = args.seconds / 2.0 if args.trace else args.seconds
    server = Server(workdir, csvs, "plain", traced=False)
    boots.append(server.boot_seconds)
    try:
        ops, warm_ops, client, warm_log, log = replay(server, trace, half)
        client.close()
    finally:
        server.stop()
    # The measured server is the largest child this process waited for.
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    metrics = _summary(ops, statistics.median(boots), rss, log)
    ops_list, logs = [warm_ops, ops], [warm_log + log]
    extra: dict[str, object] = {"sessions": len(log)}
    if args.trace:
        untraced = metrics
        metrics, traced = _traced(workdir, csvs, trace, half)
        ops_list += traced["ops"]
        logs.append(traced["log"])
        extra = {
            "sessions": [len(log), traced["sessions"]],
            "untraced_half": untraced,
            "layer_snapshot": traced["layers"],
        }
    tally = Tally()
    for each in logs:
        verify(csvs, frames, each, tally)
    check_recovery(tally)
    return build_report(tally, metrics, ops_list, extra)


def _traced(workdir, csvs, trace, seconds):
    """The same replay against a server under the layer launcher."""
    server = Server(workdir, csvs, "traced", traced=True)
    try:
        ops, warm_ops, client, warm_log, log = replay(server, trace, seconds)
        after = _metric_lines(client.scrape("/metrics"))
        client.close()
    finally:
        server.stop()
    before = client.exposition_before
    exposition = {k: v - before.get(k, 0.0) for k, v in after.items()}
    events = json.loads(server.layers_file.read_text())
    layers = aggregate([e for e in events if e[1] >= client.timed_from])
    metrics = _layer_metrics(ops, client, layers, exposition)
    summary = {k: layers[k] for k in ("seconds", "calls", "covered")}
    traced = {
        "ops": [warm_ops, ops],
        "log": warm_log + log,
        "sessions": len(log),
        "layers": summary,
    }
    return metrics, traced


def _layer_metrics(ops, client, layers, exposition) -> dict[str, float]:
    actions, busy = ops.actions()
    handle = layers["samples"].get("service.handle", [])
    waits = layers["samples"].get("service.pool_wait", [])
    pooled = client.pooled
    outside = [c - h for c, h in zip(pooled, handle)]
    if len(pooled) != len(handle):
        outside = []

    def metric(name: str, **labels: str) -> float:
        if labels:
            inner = ",".join(f'{k}="{v}"' for k, v in labels.items())
            name = f"{name}{{{inner}}}"
        return exposition.get(name, 0.0)

    stages = ("sample", "preprocess", "distances", "cluster", "describe")
    hits = sum(metric(f"blaeu_pipeline_{s}_hits_total") for s in stages)
    misses = sum(metric(f"blaeu_pipeline_{s}_misses_total") for s in stages)
    graph_hits = metric("blaeu_graph_cache_hits_total")
    graph_misses = metric("blaeu_graph_cache_misses_total")
    code_hits = metric("blaeu_graph_code_cache_hits_total")
    code_misses = metric("blaeu_graph_code_cache_misses_total")
    return {
        **per_action(layers, actions),
        "pipeline.stage_hits": hits,
        "pipeline.stage_misses": misses,
        "pipeline.stage_hit_ratio": ratio(hits, hits + misses),
        "graph.cache_hit_ratio": ratio(graph_hits, graph_hits + graph_misses),
        "graph.code_hit_ratio": ratio(code_hits, code_hits + code_misses),
        "service.client_ms.p50": ms_percentile(pooled, 50),
        "service.handle_ms.p50": ms_percentile(handle, 50),
        "service.pool_wait_ms.p50": ms_percentile(waits, 50),
        "service.outside_ms.p50": ms_percentile(outside, 50),
        "cache.l1_hits": metric("blaeu_cache_hits_total", tier="l1"),
        "cache.l1_misses": metric("blaeu_cache_misses_total", tier="l1"),
        "cache.l2_hits": metric("blaeu_cache_hits_total", tier="l2"),
        "cache.l2_misses": metric("blaeu_cache_misses_total", tier="l2"),
        "cache.evictions": metric("blaeu_cache_evictions_total"),
        "map_ms.p90": ms_percentile(ops.durations(*SERVED_MAPS), 90),
        "unattributed_ms": 1000.0
        * (busy - layers["covered"] - sum(waits))
        / max(actions, 1),
        "bench.trace_overhead_pct": overhead_pct(layers, busy),
    }
