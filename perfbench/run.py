"""Run one workload of Blaeu's interaction loop and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload explore-memory --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs half
the time untraced and half with the layer wrappers installed, and
prints the per-layer split.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full report (per-operation counts, check tallies, layer split) is
saved under ``perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
WORKLOADS = ("explore-memory", "explore-store", "serve-replay")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    # A fixed hash seed: the program seeds an in-memory table's sample
    # with hash(table name), which Python salts per process, so without
    # it two runs of one seed would sample, cluster and time other rows.
    # The server of serve-replay inherits it.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    # One BLAS thread: the workloads are closed loops of one client, and
    # spinning BLAS workers on a shared 2-CPU host widened the spread of
    # repeated runs of one seed from 7% to 16%.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    # One CPU for this process and the server it starts: a closed loop
    # of one client needs no more, and results then do not depend on
    # where the scheduler puts the client and the server.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    src = CHECKOUT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {src / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(CHECKOUT)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    from perfbench.common import result_line
    from perfbench.explore import run_explore
    from perfbench.serve import run_serve

    # The metrics and their units are the ones BENCHMARK.json declares.
    declared = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in declared[section]}

    workdir = CHECKOUT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = run_serve if args.workload == "serve-replay" else run_explore
        report = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    # A layer a workload never enters reports zero (no store on a CSV
    # table, no server in-process).
    report["metrics"] = {name: report["metrics"].get(name, 0.0) for name in units}
    out = CHECKOUT / "perfbench-out"
    out.mkdir(exist_ok=True)
    kind = "traced" if args.trace else "untraced"
    path = out / f"{args.workload}-seed{args.seed}-{kind}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True, default=str))
    for name, value in report["metrics"].items():
        print(f"{name:28s} {value:14.4f} {units[name]}")
    for failure in report["checks"]["failures"]:
        print(f"CHECK FAILED: {failure}")
    for error in report["errors"]:
        print(f"OPERATION FAILED: {error}")
    print(f"report saved to {path.relative_to(CHECKOUT)}")
    print(
        result_line(
            report["correct"],
            report["attempted"],
            report["failed"],
            report["metrics"],
            units,
        )
    )
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
