"""Run the ``repro serve-http`` CLI entry in this process, optionally traced.

    python3 -u perfbench/serve_launcher.py [--spans PATH] -- <repro args>

With ``--spans`` the layer wrappers are installed before the server
starts, and every span is written to ``PATH`` when the server stops
(send SIGINT: the CLI drains and returns).
"""

from __future__ import annotations

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    spans = Path(own[own.index("--spans") + 1]) if "--spans" in own else None
    script_dir = str(Path(__file__).resolve().parent)
    sys.path[:] = [str(_ROOT / "src"), str(_ROOT)] + [
        p for p in sys.path if p != script_dir]
    from perfbench.tracing import Tracer
    from repro.cli import main as repro_main

    tracer = None
    if spans is not None:
        tracer = Tracer()
        tracer.install("server")
    try:
        return repro_main(cli_args)
    finally:
        if tracer is not None:
            tracer.server_counters()
            tracer.restore()
            tracer.rec.dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
