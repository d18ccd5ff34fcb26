"""Independent reference checks shared by every workload.

Nothing here asks the program for an answer: region predicates are
walked structurally and evaluated with numpy on the benchmark's own
:class:`~perfbench.gen.Frame`, and every count, highlight summary and
recovery score is recomputed from those arrays.

``python3 perfbench/reference.py --self-test`` feeds the checker one
region count off by one, one perturbed highlight mean and one swapped
theme column, and exits non-zero unless each of them is caught.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Floor on the mean adjusted Rand index between the leaves of each
#: whole-table map and the planted clusters of the group it maps.
CLUSTER_ARI_FLOOR = 0.5
#: Relative tolerance of in-process highlight statistics (summation
#: order may differ from numpy's in the last bits).
REL_TOL = 1e-9
#: Absolute tolerance of statistics served over HTTP (rounded to 4 places).
WIRE_TOL = 5.1e-5


class CheckError(AssertionError):
    """An answer that disagrees with the reference."""


# ----------------------------------------------------------------------
# Predicate evaluation
# ----------------------------------------------------------------------


def _numeric(frame, name: str) -> np.ndarray:
    return frame.numeric[name]


def _code_of(frame, name: str, label: str) -> int:
    labels = frame.labels[name]
    return labels.index(label) if label in labels else -2


def evaluate(predicate, frame) -> np.ndarray:
    """The rows of ``frame`` matching ``predicate`` (SQL null semantics)."""
    kind = type(predicate).__name__
    n = frame.n_rows
    if kind == "Everything":
        return np.ones(n, dtype=bool)
    if kind in ("And", "Or"):
        parts = [evaluate(p, frame) for p in predicate.operands]
        combine = np.logical_and if kind == "And" else np.logical_or
        return combine.reduce(parts)
    if kind == "Not":
        return ~evaluate(predicate.operand, frame)
    name = predicate.column
    if kind == "IsMissing":
        if name in frame.numeric:
            return np.isnan(_numeric(frame, name))
        return frame.codes[name] < 0
    if kind == "Between":
        values = _numeric(frame, name)
        with np.errstate(invalid="ignore"):
            return (values >= predicate.low) & (values < predicate.high)
    if kind == "In":
        wanted = [_code_of(frame, name, label) for label in predicate.labels]
        return np.isin(frame.codes[name], wanted)
    if kind != "Comparison":
        raise CheckError(f"unknown predicate type {kind}")
    op, value = predicate.op, predicate.value
    if name in frame.numeric:
        values = _numeric(frame, name)
        with np.errstate(invalid="ignore"):
            out = {
                "<": values < value,
                "<=": values <= value,
                ">": values > value,
                ">=": values >= value,
                "==": values == value,
                "!=": values != value,
            }[op]
        return out & ~np.isnan(values)
    codes = frame.codes[name]
    code = _code_of(frame, name, str(value))
    if op == "==":
        return codes == code
    if op == "!=":
        return (codes != code) & (codes >= 0)
    raise CheckError(f"operator {op!r} on categorical column {name!r}")


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


@dataclass
class Tally:
    """What the checker saw over one run."""

    maps: int = 0
    regions: int = 0
    highlights: int = 0
    bound_checked: int = 0
    bound_held: int = 0
    failures: list[str] = field(default_factory=list)
    aris: list[float] = field(default_factory=list)
    themes_checked: int = 0

    def fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)

    @property
    def ok(self) -> bool:
        return not self.failures

    def bound_share(self) -> float | None:
        if not self.bound_checked:
            return None
        return self.bound_held / self.bound_checked


def check_map(data_map, frame, selection, tally: Tally, where: str) -> None:
    """Recount every region of ``data_map`` over ``selection``.

    Exact maps must match region by region, and their leaves must sum
    to the selection; approximate maps only feed the 95%-bound share.
    """
    selected = evaluate(selection, frame)
    n_selected = int(selected.sum())
    tally.maps += 1
    if data_map.root.n_rows != n_selected:
        tally.fail(
            f"{where}: root holds {data_map.root.n_rows} rows, "
            f"reference {n_selected}"
        )
        return
    exact = data_map.counts_status == "exact"
    leaf_total = 0
    for region in data_map.root.walk():
        if region is data_map.root:
            continue
        expected = int((selected & evaluate(region.predicate, frame)).sum())
        tally.regions += 1
        if exact:
            if region.n_rows != expected:
                tally.fail(
                    f"{where}: region {region.region_id} counts "
                    f"{region.n_rows}, reference {expected}"
                )
            if region.is_leaf:
                leaf_total += region.n_rows
        elif region.n_rows_error is not None:
            tally.bound_checked += 1
            if abs(region.n_rows - expected) <= region.n_rows_error:
                tally.bound_held += 1
    if exact and data_map.root.children and leaf_total != n_selected:
        tally.fail(f"{where}: leaves sum to {leaf_total}, selection {n_selected}")


def _close(got: float, want: float, absolute: float) -> bool:
    if math.isnan(want):
        return got is None or (isinstance(got, float) and math.isnan(got))
    if got is None:
        return False
    return abs(got - want) <= absolute + REL_TOL * max(1.0, abs(want))


def check_highlight(
    n_rows: int,
    numeric: dict[str, dict[str, float]],
    categories: dict[str, dict[str, int]],
    frame,
    rows: np.ndarray,
    tally: Tally,
    where: str,
    absolute: float = 0.0,
) -> None:
    """Recompute a highlight's row count, numeric mean/min/max and
    category counts on the same row mask."""
    tally.highlights += 1
    if n_rows != int(rows.sum()):
        tally.fail(f"{where}: highlight holds {n_rows} rows, reference {rows.sum()}")
        return
    for name, stats in numeric.items():
        values = _numeric(frame, name)[rows]
        values = values[~np.isnan(values)]
        want = {
            "mean": float(values.mean()) if values.size else math.nan,
            "min": float(values.min()) if values.size else math.nan,
            "max": float(values.max()) if values.size else math.nan,
        }
        for stat, value in want.items():
            if not _close(stats.get(stat), value, absolute):
                tally.fail(
                    f"{where}: {name}.{stat} is {stats.get(stat)}, reference {value}"
                )
    for name, counts in categories.items():
        codes = frame.codes[name][rows]
        tallies = np.bincount(codes[codes >= 0], minlength=len(frame.labels[name]))
        want = {
            label: int(count)
            for label, count in zip(frame.labels[name], tallies)
            if count > 0
        }
        if dict(counts) != want:
            tally.fail(f"{where}: {name} counts {dict(counts)}, reference {want}")


def adjusted_rand(a: np.ndarray, b: np.ndarray) -> float:
    """The adjusted Rand index of two labellings of the same items."""
    _, a_codes = np.unique(a, return_inverse=True)
    _, b_codes = np.unique(b, return_inverse=True)
    table = np.zeros((a_codes.max() + 1, b_codes.max() + 1), dtype=np.float64)
    np.add.at(table, (a_codes, b_codes), 1.0)
    n = float(len(a))

    def pairs(x):
        return float((x * (x - 1.0) / 2.0).sum())

    index = pairs(table)
    rows, cols = pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = rows * cols / (n * (n - 1.0) / 2.0)
    top = (rows + cols) / 2.0
    if top == expected:
        return 1.0
    return (index - expected) / (top - expected)


def check_themes(themes: list[tuple[str, ...]], frame, tally: Tally, where: str):
    """The themes must reproduce the planted column groups exactly."""
    tally.themes_checked += 1
    found = sorted(tuple(sorted(columns)) for columns in themes)
    planted = sorted(tuple(sorted(columns)) for columns in frame.groups.values())
    if found != planted:
        tally.fail(f"{where}: themes {found} differ from planted groups {planted}")


def planted_group(columns, frame) -> str:
    """The planted group holding most of ``columns``."""
    votes = {
        group: sum(c in members for c in columns)
        for group, members in frame.groups.items()
    }
    return max(votes, key=lambda group: (votes[group], group))


def score_clusters(data_map, frame, tally: Tally) -> float:
    """ARI of a whole-table map's leaf clusters against the planted ones."""
    truth = frame.planted[planted_group(data_map.columns, frame)]
    assigned = np.full(frame.n_rows, -1, dtype=np.int64)
    for leaf in data_map.leaves():
        assigned[evaluate(leaf.predicate, frame)] = leaf.cluster
    covered = assigned >= 0
    ari = adjusted_rand(assigned[covered], truth[covered])
    tally.aris.append(ari)
    return ari


def check_recovery(tally: Tally) -> None:
    """Apply the cluster-recovery floor to the run's whole-table maps."""
    if tally.aris and float(np.mean(tally.aris)) < CLUSTER_ARI_FLOOR:
        tally.fail(
            f"planted clusters recovered at mean ARI {np.mean(tally.aris):.3f}, "
            f"floor {CLUSTER_ARI_FLOOR}"
        )


# ----------------------------------------------------------------------
# Self-test
# ----------------------------------------------------------------------


def self_test() -> int:
    """Show that each check passes on true answers and fails on wrong ones."""
    import copy

    from perfbench import gen
    from repro import Blaeu
    from repro.core.config import BlaeuConfig

    spec = gen.TableSpec(
        name="tiny",
        n_rows=6000,
        groups=(
            gen.GroupSpec("a", k=3, n_numeric=3),
            gen.GroupSpec("b", k=2, n_numeric=3),
        ),
    )
    frame = gen.generate(spec, seed=5)
    engine = Blaeu(BlaeuConfig(seed=5))
    engine.register(gen.to_table(frame))
    explorer = engine.explore("tiny")
    themes = [tuple(theme.columns) for theme in explorer.themes()]
    data_map = explorer.open_theme(0)
    leaf = max(data_map.leaves(), key=lambda region: region.n_rows)
    highlight = explorer.highlight(leaf.region_id)

    def run(mutate_map=None, mutate_highlight=None, mutate_themes=None) -> bool:
        tally = Tally()
        checked = copy.deepcopy(data_map)
        if mutate_map:
            mutate_map(checked)
        check_map(checked, frame, explorer.state.selection, tally, "self-test map")
        numeric = copy.deepcopy(highlight.numeric_summaries)
        if mutate_highlight:
            mutate_highlight(numeric)
        check_highlight(
            highlight.n_rows,
            numeric,
            highlight.category_counts,
            frame,
            evaluate(leaf.predicate, frame),
            tally,
            "self-test highlight",
        )
        listed = [list(columns) for columns in themes]
        if mutate_themes:
            mutate_themes(listed)
        check_themes([tuple(c) for c in listed], frame, tally, "self-test themes")
        return tally.ok

    def off_by_one(checked) -> None:
        checked.leaves()[0].n_rows += 1

    def perturb_mean(numeric) -> None:
        name = sorted(numeric)[0]
        numeric[name]["mean"] *= 1.0 + 1e-6

    def swap_column(listed) -> None:
        listed[0][0], listed[1][0] = listed[1][0], listed[0][0]

    cases = {
        "true answers pass": (run(), True),
        "region count off by one fails": (run(mutate_map=off_by_one), False),
        "perturbed highlight mean fails": (run(mutate_highlight=perturb_mean), False),
        "swapped theme column fails": (run(mutate_themes=swap_column), False),
    }
    ok = True
    for name, (passed, expected) in cases.items():
        verdict = "ok" if passed == expected else "WRONG"
        ok &= passed == expected
        print(f"{verdict:5s} {name}")
    return 0 if ok else 1


if __name__ == "__main__":
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    if sys.argv[1:] != ["--self-test"]:
        raise SystemExit("usage: python3 perfbench/reference.py --self-test")
    raise SystemExit(self_test())
