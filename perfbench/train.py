"""``train``: the ZK-GanDef trainer on ``objects`` at the FAST geometry.

AllCNN (width 8) on 2048 examples, batch 64, gamma 3, two discriminator
steps per classifier step, Gaussian sigma 1 — run the way ``repro train
--checkpoint-dir`` runs it (divergence guard, JSONL metrics, per-epoch
atomic checkpoint) but without probes.  One training run covers the
preset's warm-up epochs plus :data:`POST_WARMUP_EPOCHS` epochs whose
classifier step carries the discriminator term.  ``examples_per_s`` is
the median over epochs of training examples per second of epoch wall
time (checkpoint included); ``p50_ms`` the median iteration (two
discriminator steps and one classifier step on a 64-example batch).

The work is fixed — one training run per invocation, whatever
``--seconds`` says — so that the printed weight digest of a seed can be
compared across invocations and commits.  A second run in the same
process would not be comparable: the ``fast`` backend's einsum
shortcuts are verified lazily per process, and a run after the first
trains on the trusted shortcuts and ends with different weights.

Checks: every epoch's loss is finite; resuming the checkpoint taken
before the last epoch and training that epoch again reproduces the
final weights bitwise.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import traceback
from pathlib import Path

from repro import backend
from repro.experiments.config import get_config
from repro.experiments.runners import (build_train_callbacks, build_trainer,
                                       load_config_split)
from repro.train import Callback, Checkpointer, load_checkpoint

from .common import BACKEND, Outcome, clock, median, weight_digest
from .harness import Timed

#: Timed epochs past the preset's warm-up, where gamma is active.
POST_WARMUP_EPOCHS = 2


class _Observer(Callback):
    """Per-iteration wall time, per-epoch losses, and a copy of the
    checkpoint written before the last epoch (the replay check resumes
    from it).  Runs after the checkpointer."""

    def __init__(self, checkpointer: Checkpointer, replay_path: Path,
                 replay_epoch: int) -> None:
        self.checkpointer = checkpointer
        self.replay_path = replay_path
        self.replay_epoch = replay_epoch
        self.iteration_ms: list = []
        self.epoch_s: list = []
        self.losses: list = []
        self._last = self._epoch_start = 0.0

    def on_epoch_start(self, loop, epoch):
        self._last = self._epoch_start = clock()

    def on_batch_end(self, loop, epoch, batch_index, loss):
        now = clock()
        self.iteration_ms.append((now - self._last) * 1e3)
        self._last = now

    def on_epoch_end(self, loop, epoch, logs):
        self.losses.append(logs.loss)
        if epoch == self.replay_epoch:
            shutil.copyfile(self.checkpointer.path, self.replay_path)
        self.epoch_s.append(clock() - self._epoch_start)


class TrainWorkload:
    budgets: dict = {}

    def __init__(self, seed: int, tiny: bool, run) -> None:
        self.seed = seed
        self.run = run
        self.tracer = None
        cfg = get_config("fast").dataset("objects")
        if tiny:
            cfg = dataclasses.replace(cfg, train_size=128, test_size=16)
        self.cfg = cfg
        self.epochs = cfg.warmup_epochs + POST_WARMUP_EPOCHS
        backend.use(BACKEND)

    # -- set-up -------------------------------------------------------- #
    def setup(self, index: int) -> dict:
        return {"split": load_config_split(self.cfg, seed=self.seed)}

    def teardown(self, state: dict) -> None:
        pass

    def child_pids(self, state: dict) -> list:
        return []

    def retrace(self, state: dict) -> None:
        pass

    def layer_metrics(self, state: dict, timed: Timed) -> dict:
        return {}

    # -- the timed region ---------------------------------------------- #
    def _trainer(self):
        trainer = build_trainer("zk-gandef", self.cfg, seed=self.seed)
        trainer.epochs = self.epochs
        if self.tracer is not None:
            self.tracer.names.add(trainer.model)
            self.tracer.names.add(trainer.discriminator, "disc")
        return trainer

    def run_timed(self, state: dict, seconds: float) -> Timed:
        split = state["split"]
        workdir = self.run.sub("train")
        trainer = self._trainer()
        checkpointer = Checkpointer(
            workdir, every=self.cfg.schedule.checkpoint_every)
        callbacks = build_train_callbacks(
            self.cfg, trainer, split, checkpointer=checkpointer,
            metrics_path=workdir / "metrics.jsonl", probe_every=0,
            fast=True, seed=self.seed)
        observer = _Observer(checkpointer, workdir / "replay.npz",
                             self.epochs - 2)
        error = None
        try:
            history = trainer.fit(split.train,
                                  callbacks=callbacks + [observer])
        except Exception:      # a raising epoch is a failed operation
            error = traceback.format_exc()
            history = trainer.history
        losses = observer.losses
        return Timed(
            examples_per_s=median([len(split.train) / seconds
                                   for seconds in observer.epoch_s]),
            latencies_ms=observer.iteration_ms,
            attempted=len(losses) + (error is not None),
            failed=sum(1 for v in losses if not math.isfinite(v))
            + (error is not None),
            details={"error": error, "stop_reason": history.stop_reason,
                     "losses": losses, "replay": workdir / "replay.npz",
                     "digest": weight_digest(trainer.checkpoint_modules())})

    # -- correctness ---------------------------------------------------- #
    def check(self, state: dict, timed: Timed) -> Outcome:
        run = timed.details
        out = Outcome(attempted=timed.attempted, failed=timed.failed)
        if run["error"]:
            print(run["error"])
        out.check(run["error"] is None, "an epoch raised")
        out.check(run["stop_reason"] is None,
                  f"training stopped early: {run['stop_reason']}")
        # Replay the last epoch from the checkpoint written before it.
        out.attempted += 1
        trainer = self._trainer()
        replayed = None
        if run["replay"].exists():
            load_checkpoint(trainer, run["replay"])
            trainer.fit(state["split"].train)
            replayed = weight_digest(trainer.checkpoint_modules())
        if not out.check(replayed == run["digest"],
                         "resuming before the last epoch did not reproduce "
                         "the weights bitwise"):
            out.failed += 1
        out.notes["weight_digest"] = run["digest"]
        out.notes["epoch_losses"] = [round(v, 6) for v in run["losses"]]
        return out
