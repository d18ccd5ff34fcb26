"""Seeded inputs of the benchmark: tables with planted themes and clusters.

Every table is a set of column *groups*.  Each group has its own row
labelling (its planted clusters, drawn independently of every other
group), and every column of the group is driven by that labelling:
numeric columns sit around a per-cluster centre, the group's
categorical column carries its cluster's label with probability
``CATEGORY_FIDELITY``.  Columns of one group therefore depend strongly
on each other and not at all on other groups -- the planted themes --
and a map over one group's columns should recover that group's labels.

The benchmark keeps its own copy of every column (:class:`Frame`), so
the reference checker never reads a value back from the program.
Numeric cells are integers stored as float64, so a CSV round trip is
exact; missing cells are NaN (numeric) or code -1 (categorical).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CATEGORY_FIDELITY = 0.9
MISSING_RATE = 0.02
#: Parts per level of nesting under each planted cluster, and the
#: spacing of each level's parts (planted clusters sit 10 apart).
SUBCLUSTERS = (4, 4, 4)
SPACINGS = (2.0, 0.5, 0.125)
#: Deviation of the noise on a numeric cell, in the same units.
NOISE = 0.02


@dataclass(frozen=True)
class GroupSpec:
    """One planted theme: ``n_numeric`` numeric columns and one
    categorical column, over ``k`` planted clusters."""

    name: str
    k: int
    n_numeric: int


@dataclass(frozen=True)
class TableSpec:
    """The make-up of one generated table."""

    name: str
    n_rows: int
    groups: tuple[GroupSpec, ...]
    #: Numeric column (of the first group) the rows are sorted on, whose
    #: per-cluster ranges do not overlap; ``None`` keeps generation order.
    sort_column: str | None = None


@dataclass
class Frame:
    """The benchmark's own copy of a table: plain numpy arrays."""

    name: str
    numeric: dict[str, np.ndarray] = field(default_factory=dict)
    codes: dict[str, np.ndarray] = field(default_factory=dict)
    labels: dict[str, list[str]] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)
    #: Planted cluster label per row, per group.
    planted: dict[str, np.ndarray] = field(default_factory=dict)
    #: Planted theme: group name -> its columns.
    groups: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        name = self.order[0]
        array = self.numeric.get(name)
        return len(array if array is not None else self.codes[name])

    def concat(self, other: "Frame") -> "Frame":
        """This frame with ``other``'s rows appended (labels merged)."""
        out = Frame(self.name, order=list(self.order), groups=dict(self.groups))
        for name in self.order:
            if name in self.numeric:
                out.numeric[name] = np.concatenate(
                    [self.numeric[name], other.numeric[name]]
                )
                continue
            labels = list(self.labels[name])
            index = {label: i for i, label in enumerate(labels)}
            theirs = other.codes[name]
            remap = np.empty(len(other.labels[name]), dtype=np.int32)
            for code, label in enumerate(other.labels[name]):
                if label not in index:
                    index[label] = len(labels)
                    labels.append(label)
                remap[code] = index[label]
            mapped = np.where(theirs >= 0, remap[np.maximum(theirs, 0)], -1)
            out.codes[name] = np.concatenate([self.codes[name], mapped]).astype(
                np.int32
            )
            out.labels[name] = labels
        for group in self.planted:
            out.planted[group] = np.concatenate(
                [self.planted[group], other.planted[group]]
            )
        return out


MEMORY_SPEC = TableSpec(
    name="survey",
    n_rows=200_000,
    groups=(
        GroupSpec("income", k=3, n_numeric=5),
        GroupSpec("health", k=4, n_numeric=5),
        GroupSpec("labour", k=3, n_numeric=5),
        GroupSpec("housing", k=4, n_numeric=5),
        GroupSpec("travel", k=3, n_numeric=5),
    ),
)

STORE_SPEC = TableSpec(
    name="sensors",
    n_rows=250_000,
    groups=(
        GroupSpec("time", k=4, n_numeric=3),
        GroupSpec("power", k=3, n_numeric=3),
        GroupSpec("climate", k=4, n_numeric=3),
    ),
    sort_column="time_x0",
)
STORE_PARTITION_ROWS = 12_500
STORE_CHUNK_ROWS = 12_500
STORE_SLAB_ROWS = 20_000

SERVE_SPECS = (
    TableSpec(
        name="retail",
        n_rows=12_000,
        groups=(
            GroupSpec("basket", k=3, n_numeric=3),
            GroupSpec("store", k=4, n_numeric=3),
            GroupSpec("customer", k=3, n_numeric=3),
        ),
    ),
    TableSpec(
        name="fleet",
        n_rows=9_000,
        groups=(
            GroupSpec("engine", k=4, n_numeric=3),
            GroupSpec("route", k=3, n_numeric=3),
        ),
    ),
)


def _weights(rng: np.random.Generator, k: int) -> np.ndarray:
    """Unequal cluster shares, none below 8%."""
    raw = rng.dirichlet(np.full(k, 4.0))
    raw = np.maximum(raw, 0.08)
    return raw / raw.sum()


def generate(
    spec: TableSpec, seed: int, n_rows: int | None = None, stream: int = 0
) -> Frame:
    """The table ``spec`` at ``seed`` (``n_rows`` overrides the spec).

    The planted layout is fixed per table: cluster centres, shares and
    scales, which planted cluster (and nested part) every row belongs
    to, which cells are missing and which rows' category is flipped
    away from their cluster's.  ``seed`` draws every numeric cell's
    noise over that layout, so every seed poses the same
    exploration -- the same maps, zooms and selection sizes -- over
    other values.  ``stream`` lays out more rows of the same table, so
    a slab is more rows of the same table.
    """
    n = spec.n_rows if n_rows is None else n_rows
    shape_rng = np.random.default_rng([7, *spec.name.encode()])
    layout_rng = np.random.default_rng([9, stream, *spec.name.encode()])
    rows_rng = np.random.default_rng((seed, 8, stream))
    frame = Frame(spec.name)
    for group in spec.groups:
        weights = _weights(shape_rng, group.k)
        labels = layout_rng.choice(group.k, size=n, p=weights)
        frame.planted[group.name] = labels.astype(np.int64)
        # Nested parts: every planted cluster splits into SUBCLUSTERS[0]
        # parts, every part again, and so on, so zooming follows planted
        # structure until the selection is below clara_threshold.
        nested = []
        for parts in SUBCLUSTERS:
            shares = _weights(shape_rng, parts)
            nested.append(layout_rng.choice(parts, size=n, p=shares))
        columns: list[str] = []
        for j in range(group.n_numeric):
            name = f"{group.name}_x{j}"
            scale = float(10 ** shape_rng.uniform(2.0, 3.5))
            if name == spec.sort_column:
                # Non-overlapping per-cluster bands laid out with the
                # rows (a clock, never missing): the sort column orders
                # rows cluster by cluster, the same way at every seed.
                centres = np.arange(group.k) * 10.0
                shape_rng.shuffle(centres)
                signal = centres[labels] + layout_rng.uniform(-3.5, 3.5, size=n)
                frame.numeric[name] = np.rint(signal * scale)
                columns.append(name)
                continue
            # Clusters sit 10 apart and each level of parts a quarter of
            # the spacing of the level above, over NOISE: every level is
            # separated by at least six noise deviations.
            signal = (shape_rng.permutation(group.k) * 10.0)[labels]
            for spacing, count, parts in zip(SPACINGS, SUBCLUSTERS, nested):
                offsets = shape_rng.permutation(count) * spacing
                signal = signal + offsets[parts]
            signal = signal + rows_rng.normal(0.0, NOISE, size=n)
            values = np.rint(signal * scale)
            values[layout_rng.random(n) < MISSING_RATE] = np.nan
            frame.numeric[name] = values
            columns.append(name)
        name = f"{group.name}_cat"
        keep = layout_rng.random(n) < CATEGORY_FIDELITY
        other = layout_rng.integers(0, group.k, size=n)
        codes = np.where(keep, labels, other).astype(np.int32)
        codes[layout_rng.random(n) < MISSING_RATE] = -1
        frame.codes[name] = codes
        frame.labels[name] = [f"{group.name[:3]}{c}" for c in range(group.k)]
        columns.append(name)
        frame.groups[group.name] = tuple(columns)
        frame.order.extend(columns)
    if spec.sort_column is not None:
        order = np.argsort(frame.numeric[spec.sort_column], kind="stable")
        for name in frame.numeric:
            frame.numeric[name] = frame.numeric[name][order]
        for name in frame.codes:
            frame.codes[name] = frame.codes[name][order]
        for group in frame.planted:
            frame.planted[group] = frame.planted[group][order]
    return frame


def slab(spec: TableSpec, seed: int, index: int) -> Frame:
    """The ``index``-th appended slab of the store at ``seed``."""
    return generate(spec, seed, n_rows=STORE_SLAB_ROWS, stream=1 + index)


def to_table(frame: Frame):
    """The program's in-memory ``Table`` holding ``frame``'s cells."""
    from repro.table.column import CategoricalColumn, NumericColumn
    from repro.table.table import Table

    columns = []
    for name in frame.order:
        if name in frame.numeric:
            columns.append(NumericColumn(name, frame.numeric[name]))
        else:
            columns.append(
                CategoricalColumn(name, frame.codes[name], frame.labels[name])
            )
    return Table(frame.name, columns)


def write_csv(frame: Frame, path: Path, chunk_rows: int = 50_000) -> None:
    """Write ``frame`` as CSV (integers, empty cells for missing)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(frame.order) + "\n")
        for start in range(0, frame.n_rows, chunk_rows):
            stop = min(start + chunk_rows, frame.n_rows)
            cells = []
            for name in frame.order:
                if name in frame.numeric:
                    values = frame.numeric[name][start:stop]
                    digits = np.nan_to_num(values).astype(np.int64).astype(str)
                    text = np.where(np.isnan(values), "", digits)
                else:
                    labels = np.asarray(frame.labels[name] + [""], dtype=object)
                    codes = frame.codes[name][start:stop]
                    text = labels[np.where(codes >= 0, codes, len(labels) - 1)]
                cells.append(text.astype(object))
            rows = np.stack(cells, axis=1)
            handle.write("\n".join(",".join(row) for row in rows.tolist()))
            handle.write("\n")


def write_csv_apart(frame: Frame, path: Path) -> None:
    """:func:`write_csv` in a forked child, so the writer's per-chunk
    object arrays do not count in this process's peak RSS."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            write_csv(frame, path)
            code = 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"writing {path} failed")
