"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload {train,attack,serve} --seed N \
        --seconds S --trace {0,1}

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports every end-to-end metric of ``BENCHMARK.json``; ``--trace 1``
reports every per-layer metric, measured by wrapping each layer's
public entry points (see ``perfbench/tracing.py``).  The exit status is
non-zero when a correctness check fails, and when the checkout holds no
``src/repro`` to benchmark.  Every process a run starts (pool workers,
the server, ``multiprocessing``'s resource tracker) has ended before it
exits.  ``--tiny`` shrinks every size for the smoke test
(``perfbench/smoke.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent


def _set_path() -> None:
    # Import the benchmark as a package and the program from src/; the
    # script directory itself must not shadow other modules.
    script_dir = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if p != script_dir]
    for entry in (str(_ROOT / "src"), str(_ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def _metric_block(spec: list, values: dict, strict: bool) -> dict:
    """Values in ``BENCHMARK.json`` order.  End-to-end metrics must all
    be measured; a per-layer metric of a layer the workload never
    reaches reads 0."""
    return {m["name"]: {"value": float(values[m["name"]] if strict
                                       else values.get(m["name"], 0.0)),
                        "unit": m["unit"]}
            for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "attack", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the smoke test")
    args = parser.parse_args(argv)

    _set_path()
    from perfbench import common

    if not common.sources_present():
        print(f"perfbench: no program sources at {common.SRC}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    from perfbench.harness import run_workload

    # Leave through the ``finally`` on SIGTERM too, so that no process
    # the run started outlives it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.tiny)
    finally:
        common.stop_children()
    block = spec["per_layer" if args.trace else "end_to_end"]
    result = {"correct": outcome.correct,
              "attempted": int(outcome.attempted),
              "failed": int(outcome.failed),
              "metrics": _metric_block(block, outcome.metrics,
                                       strict=not args.trace)}
    sys.stdout.flush()
    print(json.dumps(result), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
elif __name__ == "__mp_main__":
    # A spawn-pool worker re-imports this script.  During a traced run
    # it wraps the layers too, and crafted shards ship their spans home.
    _set_path()
    from perfbench.tracing import WORKER_ENV, Tracer

    if os.environ.get(WORKER_ENV) == "1":
        Tracer().install("worker")
