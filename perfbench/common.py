"""Bookkeeping shared by the workloads: timed operations and summaries."""

from __future__ import annotations

import json
import resource
import statistics
import time
import traceback
from collections import Counter, defaultdict

import numpy as np

#: Operations that return a map (their latency is ``map_ms``).
MAP_OPS = ("open", "zoom", "project", "kmap")


class Ops:
    """Attempted/failed counts and latencies per operation type."""

    #: Operations that are not actions of the loop (``append`` feeds the
    #: store between passes).
    NOT_ACTIONS = ("append",)

    def __init__(self) -> None:
        self.attempted: Counter[str] = Counter()
        self.failed: Counter[str] = Counter()
        self.seconds: dict[str, list[float]] = defaultdict(list)
        self.errors: list[str] = []
        #: Completed actions and their summed latency, at each window end.
        self._marks: list[tuple[int, float]] = [(0, 0.0)]
        self._actions, self._busy = 0, 0.0
        #: Per closed window: (position in the window, op) -> latency.
        self.windows: list[dict[tuple[int, str], float]] = []
        self._window: dict[tuple[int, str], float] = {}
        self._position = 0

    def record(self, op: str, seconds: float) -> None:
        """One completed operation."""
        self.seconds[op].append(seconds)
        self._window[(self._position, op)] = seconds
        if op not in self.NOT_ACTIONS:
            self._actions += 1
            self._busy += seconds

    def mark(self) -> None:
        """Close a window (a pass, or a fixed group of sessions)."""
        self._marks.append((self._actions, self._busy))
        self.windows.append(self._window)
        self._window, self._position = {}, 0

    def rate(self) -> float:
        """Actions per second of latency: the median over closed windows,
        so a burst of load on the host moves one window, not the run."""
        rates = [
            (n1 - n0) / (b1 - b0)
            for (n0, b0), (n1, b1) in zip(self._marks, self._marks[1:])
            if b1 > b0
        ]
        if rates:
            return statistics.median(rates)
        return self._actions / self._busy if self._busy else 0.0

    def run(self, op: str, fn, *args, **kwargs):
        """Call ``fn``; record its latency, or a failure (returns None)."""
        self.attempted[op] += 1
        self._position += 1
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # a failed operation is counted, not fatal
            self.failed[op] += 1
            if len(self.errors) < 5:
                self.errors.append(f"{op}: {traceback.format_exc(limit=3)}")
            return None
        self.record(op, time.perf_counter() - started)
        return result

    def durations(self, *ops: str) -> list[float]:
        return [s for op in ops for s in self.seconds.get(op, ())]

    def actions(self) -> tuple[int, float]:
        """Completed actions and their summed latency (seconds)."""
        return self._actions, self._busy

    def per_type(self) -> dict[str, dict[str, int]]:
        return {
            op: {"attempted": self.attempted[op], "failed": self.failed[op]}
            for op in sorted(self.attempted)
        }


def median_of_windows(windows) -> dict[tuple[int, str], float]:
    """Each operation's median latency over windows that repeat the same
    operations in the same order (keyed by position and type).

    Load from other tenants of the host comes in phases of seconds to
    minutes, so one pass can run whole in a slow phase; the median over
    the passes of each action drops such a pass, and the run's figures
    do not rest on one action's luck either (a best time over the
    passes spread between runs three times as wide).
    """
    times: dict[tuple[int, str], list[float]] = defaultdict(list)
    for window in windows:
        for key, seconds in window.items():
            times[key].append(seconds)
    return {key: statistics.median(values) for key, values in times.items()}


def ms_percentile(seconds: list[float], q: float) -> float:
    """The ``q``-th percentile of ``seconds``, in milliseconds."""
    if not seconds:
        return float("nan")
    if q == 50:
        return 1000.0 * statistics.median(seconds)
    return 1000.0 * float(np.percentile(seconds, q))


def ms_gmean(seconds: list[float]) -> float:
    """Geometric mean of ``seconds``, in milliseconds.

    For a mix of actions whose latencies sit in separate modes (a
    highlight on a 50,000-row selection and one on 3,000 rows; a zoom
    whose scan the zone maps prune and one they do not), where a median
    falls between two modes and jumps from one to the other as the mix
    shifts by one action.
    """
    if not seconds:
        return float("nan")
    return 1000.0 * float(np.exp(np.mean(np.log(seconds))))


def peak_rss_mb() -> float:
    """Peak resident set of this process (MB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_timed(fn, repeats: int) -> tuple[float, object]:
    """Median wall time of ``repeats`` calls, and the last call's result."""
    times, result = [], None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times), result


def result_line(correct: bool, attempted: int, failed: int, metrics, units) -> str:
    """The final JSON line the benchmark prints (``units``: name -> unit)."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": units[name]}
                for name, value in metrics.items()
            },
        }
    )


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0 when nothing was counted."""
    return part / whole if whole else 0.0


def build_report(tally, metrics, ops_list, extra=None) -> dict[str, object]:
    """The saved report: counts per operation type, checks, metrics."""
    per_type: dict[str, dict[str, int]] = {}
    for ops in ops_list:
        for op, counts in ops.per_type().items():
            slot = per_type.setdefault(op, {"attempted": 0, "failed": 0})
            slot["attempted"] += counts["attempted"]
            slot["failed"] += counts["failed"]
    return {
        "correct": tally.ok,
        "attempted": sum(slot["attempted"] for slot in per_type.values()),
        "failed": sum(slot["failed"] for slot in per_type.values()),
        "operations": per_type,
        "checks": {
            "maps": tally.maps,
            "regions": tally.regions,
            "highlights": tally.highlights,
            "themes_checked": tally.themes_checked,
            "cluster_ari": tally.aris,
            "bound_checked": tally.bound_checked,
            "bound_share": tally.bound_share(),
            "failures": list(tally.failures),
        },
        "errors": [error for ops in ops_list for error in ops.errors],
        "latencies_s": {
            op: [s for ops in ops_list for s in ops.seconds.get(op, ())]
            for op in per_type
        },
        "metrics": metrics,
        **(extra or {}),
    }
