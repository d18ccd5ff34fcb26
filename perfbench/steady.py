"""Steadiness of one workload: run it over several seeds and summarize.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload serve-replay --seeds 1-10 \\
        --seconds 25

Runs ``perfbench/run.py`` once per seed, one after another, and prints
for every end-to-end metric its median, first and third quartile
(``statistics.quantiles(values, n=4)``), the quartile distance over the
median, and the max-min spread over the median, plus the failed share
of every run.  Exits non-zero if any run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/steady.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    runs, ok = [], True
    for seed in _seeds(args.seeds):
        flags = {
            "--workload": args.workload,
            "--seed": seed,
            "--seconds": args.seconds,
            "--trace": 0,
        }
        command = [sys.executable, str(HERE / "run.py")]
        for flag, value in flags.items():
            command += [flag, str(value)]
        done = subprocess.run(command, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= bool(result["correct"])
        share = result["failed"] / result["attempted"]
        print(
            f"seed {seed}: correct={result['correct']} attempted="
            f"{result['attempted']} failed={result['failed']} ({share:.4f})",
            flush=True,
        )
        runs.append(result)
    if len(runs) < 2:
        return 1
    header = ("median", "q1", "q3")
    print(f"\n{'metric':28s}", *(f"{h:>12s}" for h in header), "iqr/med range/med")
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        scale = abs(median) or 1.0
        print(
            f"{name:28s} {median:12.4f} {q1:12.4f} {q3:12.4f} "
            f"{(q3 - q1) / scale:8.3f} {(max(values) - min(values)) / scale:9.3f}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
