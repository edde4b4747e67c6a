"""``attack``: the Table 3 grid on ``digits`` through the sharded engine.

LeNet victim, a ZK-GanDef trained during set-up; the Sec. IV-C budgets
at eps 0.6 — FGSM, BIM (10 x 0.1) and PGD (40 x 0.02, random start) —
with early stopping on, as every experiment config builds them.  One
256-example test slice is attacked through ``AttackSuite(workers=2)``
at the default shard size; the spawn pool is started and warmed during
set-up.  Grids repeat until ``--seconds`` have passed (at least
:data:`MIN_GRIDS`); ``examples_per_s`` is the median over grids of
(test examples x attacks) per second of ``AttackSuite.run`` wall time,
scoring included, and ``p50_ms`` the median grid.

The victim and the 256 attacked examples are fixtures generated from
:data:`FIXTURE_SEED`: with early stopping, the amount of work depends on
which examples are attacked (different slices moved throughput by ~15%
between seeds), so the workload seed only orders the slice — which
changes the shard layout and the shapes of the shrinking batches — and
seeds PGD's random starts.

Checks: robust accuracy is at most clean accuracy for each attack; every
grid's accuracies and flip counts equal those of the same grid crafted
in-process at the same shard size (the engine's worker-count contract).
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from repro import backend
from repro.eval.engine import AttackSuite
from repro.experiments.config import get_config
from repro.experiments.runners import build_trainer, load_config_split
from repro.utils.pool import DEFAULT_SHARD_SIZE

from .common import BACKEND, Outcome, clock, median, worker_pids
from .harness import Timed
from .tracing import WORKER_ENV

WORKERS = 2
MIN_GRIDS = 2
#: Set-up trains the victim on this many examples for this many epochs
#: (digits generation costs ~3 ms an example, and set-up runs thrice).
FIXTURE_TRAIN = 512
FIXTURE_EPOCHS = 2
FIXTURE_SEED = 0


def _cells(result) -> list:
    return [(r.attack, r.accuracy, r.flipped) for r in result.records]


class AttackWorkload:
    def __init__(self, seed: int, tiny: bool, run) -> None:
        self.seed = seed
        self.tracer = None
        self.size = 32 if tiny else 256
        cfg = get_config("fast").dataset("digits")
        self.cfg = dataclasses.replace(
            cfg, train_size=64 if tiny else FIXTURE_TRAIN,
            test_size=self.size)
        self.order = np.random.default_rng(seed).permutation(self.size)
        self.attacks = cfg.budget.build(fast=False, seed=seed)
        pgd = self.attacks["pgd"]
        self.budgets = {"fgsm": 1, "bim": self.attacks["bim"].iterations,
                        "pgd": pgd.iterations * pgd.restarts}
        backend.use(BACKEND)

    # -- set-up -------------------------------------------------------- #
    def setup(self, index: int) -> dict:
        split = load_config_split(self.cfg, seed=FIXTURE_SEED)
        trainer = build_trainer("zk-gandef", self.cfg, seed=FIXTURE_SEED)
        trainer.epochs = FIXTURE_EPOCHS
        trainer.fit(split.train)
        test = split.test
        state = {"model": trainer.model, "x": test.images[self.order],
                 "y": test.labels[self.order]}
        state["suite"] = self._suite(state)
        return state

    def _suite(self, state: dict) -> AttackSuite:
        """A suite whose pool is spawned and warm: every worker has
        imported the stack and loaded the victim (``pool.spawn``)."""
        rec = self.tracer.rec if self.tracer is not None else None
        span = rec.begin("pool.spawn") if rec is not None else None
        try:
            suite = AttackSuite(self.attacks, workers=WORKERS)
            with AttackSuite({"fgsm": self.attacks["fgsm"]},
                             pool=suite.crafter.pool) as warm:
                warm.run(state["model"], state["x"], state["y"])
        finally:
            if span is not None:
                rec.end(span)
        return suite

    def teardown(self, state: dict) -> None:
        state["suite"].close()

    def child_pids(self, state: dict) -> list:
        return worker_pids()

    def retrace(self, state: dict) -> None:
        """Respawn the pool with workers that install the wrappers."""
        state["suite"].close()
        os.environ[WORKER_ENV] = "1"
        try:
            state["suite"] = self._suite(state)
        finally:
            del os.environ[WORKER_ENV]

    # -- the timed region ---------------------------------------------- #
    def run_timed(self, state: dict, seconds: float) -> Timed:
        suite, model, x, y = (state["suite"], state["model"], state["x"],
                              state["y"])
        grids = []
        start = clock()
        while len(grids) < MIN_GRIDS or clock() - start < seconds:
            t0 = clock()
            result = suite.run(model, x, y, model_name="zk-gandef",
                               dataset="digits")
            grids.append((clock() - t0, result))
        per_grid = len(x) * len(self.attacks)
        return Timed(
            examples_per_s=median([per_grid / wall for wall, _ in grids]),
            latencies_ms=[wall * 1e3 for wall, _ in grids],
            attempted=len(grids) * len(self.attacks),
            failed=0,
            details={"grids": [result for _, result in grids]})

    def layer_metrics(self, state: dict, timed: Timed) -> dict:
        busy = self.tracer.rec.counter("eval.shard_busy_s")
        wall = sum(timed.latencies_ms) / 1e3
        return {"pool.utilization": busy / (wall * WORKERS)}

    # -- correctness ---------------------------------------------------- #
    def check(self, state: dict, timed: Timed) -> Outcome:
        out = Outcome(attempted=timed.attempted)
        with AttackSuite(self.attacks, workers=1,
                         shard_size=DEFAULT_SHARD_SIZE) as local:
            reference = local.run(state["model"], state["x"], state["y"])
        want = _cells(reference)
        bad = [cell for result in timed.details["grids"]
               for cell, expected in zip(_cells(result), want)
               if cell != expected or cell[1] > result.clean_accuracy]
        out.failed += len(bad)
        out.check(not bad, f"{len(bad)} grid cells differ from the "
                           f"in-process grid {want} or beat clean accuracy: "
                           f"{bad[:3]}")
        out.notes["grids"] = len(timed.details["grids"])
        out.notes["clean_accuracy"] = reference.clean_accuracy
        out.notes["cells (attack, accuracy, flipped)"] = want
        return out
