"""Start ``blaeu serve`` with the layer wrappers installed.

Usage::

    python3 perfbench/launcher.py --layers-out layers.json -- <serve args>

Installs :class:`perfbench.layers.LayerClock`, runs
``repro.cli.serve_main`` until the server shuts down (SIGTERM), then
writes every timed call (layer, start, duration) to ``--layers-out``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--layers-out" or argv[2] != "--":
        raise SystemExit(__doc__)
    out, serve_args = Path(argv[1]), argv[3:]
    checkout = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(checkout / "src"), str(checkout)]
    from perfbench.layers import LayerClock
    from repro.cli import serve_main

    clock = LayerClock().install()
    try:
        serve_main(serve_args)
    finally:
        clock.restore()
        out.write_text(json.dumps(clock.events))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
