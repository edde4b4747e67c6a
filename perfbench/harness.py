"""Run one workload untraced (end-to-end metrics) or traced (per-layer).

A workload object provides ``setup(i)``, ``teardown(state)``,
``run_timed(state, seconds) -> Timed``, ``check(state, timed) ->
Outcome``, ``child_pids(state)``, ``retrace(state)`` (prepare other
processes for the traced pass), ``layer_metrics(state, timed)`` and the
``budgets`` dict (gradient iterations per attack).

The traced run sets up once with the wrappers installed, runs the timed
region once untraced and once traced, and reports the per-layer metrics
of the traced pass plus ``trace.overhead_ratio``: how much slower the
workload's examples/s ran traced.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import List

from .common import (WORK, Outcome, RunDir, median, peak_rss_mb,
                     provenance, timed_setups)
from .report import base_metrics, format_table
from .tracing import Tracer, pool_counts


@dataclass
class Timed:
    """What one pass over the timed region measured.

    ``examples_per_s`` is a median over the pass's units of work (epochs,
    grids) where the workload has several, so that a few seconds of host
    contention cannot move it; ``latencies_ms`` holds one sample per
    operation for ``p50_ms``."""

    examples_per_s: float
    latencies_ms: List[float]
    attempted: int
    failed: int
    details: dict = field(default_factory=dict)


def _workload(name: str, seed: int, tiny: bool, run: RunDir):
    if name == "train":
        from .train import TrainWorkload as cls
    elif name == "attack":
        from .attack import AttackWorkload as cls
    else:
        from .serve import ServeWorkload as cls
    return cls(seed, tiny, run)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool) -> Outcome:
    print("provenance " + json.dumps(provenance(name, seed)), flush=True)
    run = RunDir(name, seed)
    try:
        wl = _workload(name, seed, tiny, run)
        if trace:
            return _traced(wl, seconds, name, seed)
        return _untraced(wl, seconds)
    finally:
        run.close()


def _flush() -> None:
    """Write dirty pages out before a timed pass, so that the kernel's
    periodic writeback of set-up files (and of earlier runs') is not
    timed with it."""
    os.sync()


def _report(out: Outcome) -> None:
    for key, value in out.notes.items():
        print(f"  {key}: {value}")
    for failure in out.checks:
        print(f"CHECK FAILED: {failure}")
    frac = out.failed / out.attempted if out.attempted else 0.0
    print(f"  failed_frac: {frac:.4f} ({out.failed}/{out.attempted})")


def _untraced(wl, seconds: float) -> Outcome:
    state, setup_s = timed_setups(wl.setup, wl.teardown)
    try:
        _flush()
        timed = wl.run_timed(state, seconds)
        out = wl.check(state, timed)
        rss = peak_rss_mb(wl.child_pids(state))
    finally:
        wl.teardown(state)
    out.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "examples_per_s": timed.examples_per_s,
        "p50_ms": median(timed.latencies_ms),
    }
    _report(out)
    print(f"  latency samples: {len(timed.latencies_ms)}")
    for name, value in out.metrics.items():
        print(f"  {name}: {value:.6g}")
    return out


def _traced(wl, seconds: float, name: str, seed: int) -> Outcome:
    tracer = Tracer()
    wl.tracer = tracer
    state = None
    try:
        tracer.install()
        state = wl.setup(0)
        tracer.restore()
        _flush()
        plain = wl.run_timed(state, seconds)
        tracer.install()
        wl.retrace(state)
        tracer.rec.phase = "timed"
        _flush()
        hits, misses = pool_counts()
        traced = wl.run_timed(state, seconds)
        after = pool_counts()
        tracer.rec.count("backend.pool_hits", after[0] - hits)
        tracer.rec.count("backend.pool_misses", after[1] - misses)
        tracer.rec.phase = "check"
        out = wl.check(state, traced)
    finally:
        tracer.restore()
        if state is not None:
            wl.teardown(state)
    out.metrics = base_metrics(tracer.rec, wl.budgets)
    out.metrics.update(wl.layer_metrics(state, traced))
    out.metrics["trace.overhead_ratio"] = \
        plain.examples_per_s / traced.examples_per_s - 1.0
    print(format_table(tracer.rec))
    _report(out)
    print(f"  examples/s untraced {plain.examples_per_s:.4g}, traced "
          f"{traced.examples_per_s:.4g}: tracing overhead "
          f"{out.metrics['trace.overhead_ratio']:+.2%}")
    tracer.rec.dump(WORK / "traces" / f"{name}-seed{seed}.json")
    return out
