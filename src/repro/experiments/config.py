"""Experiment configuration presets.

Two presets share one code path:

* ``FAST`` — CPU-minutes scale used by tests and the benchmark harness,
* ``FULL`` — the paper's parameters (dataset sizes, epoch counts, attack
  budgets) for completeness; running FULL on this substrate is a matter of
  hours, not feasibility.

Attack budgets follow Sec. IV-C exactly: l-inf limit 0.6 on the two
28x28 gray datasets and 0.06 on the RGB dataset; BIM per-step 0.1 / 0.016;
PGD 40 iterations x 0.02 / 20 x 0.016.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..attacks import BIM, CarliniWagner, DeepFool, FGSM, PGD, Attack

__all__ = ["AttackBudget", "DatasetConfig", "ExperimentConfig",
           "TrainingSchedule", "FAST", "FULL", "get_config",
           "DEFENSE_NAMES"]

DEFENSE_NAMES = ("vanilla", "clp", "cls", "zk-gandef",
                 "fgsm-adv", "pgd-adv", "pgd-gandef")


@dataclass(frozen=True)
class AttackBudget:
    """Per-dataset attack hyper-parameters (Sec. IV-C)."""

    eps: float
    bim_step: float
    bim_iterations: int
    pgd_step: float
    pgd_iterations: int

    def build(self, fast: bool, seed: int = 0,
              early_stop: bool = True) -> Dict[str, Attack]:
        """Instantiate the main-grid attacks; FAST trims iteration counts
        (the budget ``eps`` is never changed — it defines the threat).

        ``early_stop`` puts the iterative attacks on the engine's
        active-mask path: fooled examples stop iterating, which skips the
        bulk of the gradient steps while leaving the measured accuracies
        unchanged — a fooled example stays fooled under continued loss
        ascent in practice, and the seeded equivalence tests and benchmark
        pin the equality on every shipped configuration.
        """
        bim_iters = min(self.bim_iterations, 5) if fast else self.bim_iterations
        pgd_iters = min(self.pgd_iterations, 8) if fast else self.pgd_iterations
        # Keep the step large enough to traverse the ball in fewer steps.
        bim_step = max(self.bim_step, self.eps / bim_iters) if fast \
            else self.bim_step
        pgd_step = max(self.pgd_step, self.eps / pgd_iters) if fast \
            else self.pgd_step
        return {
            "fgsm": FGSM(eps=self.eps),
            "bim": BIM(eps=self.eps, step=bim_step, iterations=bim_iters,
                       early_stop=early_stop),
            "pgd": PGD(eps=self.eps, step=pgd_step, iterations=pgd_iters,
                       seed=seed, early_stop=early_stop),
        }

    def build_generalizability(self, fast: bool,
                               early_stop: bool = True) -> Dict[str, Attack]:
        """Table IV attacks (DeepFool, CW) at the same budget."""
        iters = 5 if fast else 20
        return {
            "deepfool": DeepFool(eps=self.eps, iterations=iters),
            "cw": CarliniWagner(eps=self.eps, iterations=iters * 3,
                                early_stop=early_stop),
        }


@dataclass(frozen=True)
class TrainingSchedule:
    """Run-control knobs for the :mod:`repro.train` subsystem.

    ``scheduler`` names a :func:`repro.train.schedulers.build_scheduler`
    kind; ``none`` (the FAST default) keeps the constant learning rate the
    paper-artifact tests pin.  ``probe_every=0`` disables in-training
    robustness probes unless the caller asks for them (``repro train
    --probe-every``).
    """

    scheduler: str = "none"          # none | step | cosine | warmup-cosine
    step_size: int = 10              # StepLR cadence (epochs)
    decay: float = 0.5               # StepLR multiplier
    lr_warmup_epochs: int = 0        # warm-up span for warmup-cosine
    min_lr: float = 1e-5             # cosine floor
    checkpoint_every: int = 1        # Checkpointer cadence (epochs)
    probe_every: int = 0             # RobustnessProbe cadence; 0 = off
    probe_attacks: Tuple[str, ...] = ("fgsm", "pgd")
    probe_size: int = 64             # held-out slice size for probes


@dataclass(frozen=True)
class DatasetConfig:
    """One dataset's sizes, model and training geometry."""

    name: str
    train_size: int
    test_size: int
    eval_size: int
    epochs: int
    batch_size: int
    model_width: int
    lr: float
    budget: AttackBudget
    optimizer: str = "adam"
    gamma: float = 3.0
    disc_steps: int = 2
    warmup_epochs: int = 4
    clp_lambda: float = 0.5
    cls_lambda: float = 0.4
    sigma: float = 1.0
    train_attack_iterations: int = 5
    schedule: TrainingSchedule = TrainingSchedule()


_PAPER_BUDGETS = {
    "digits": AttackBudget(eps=0.6, bim_step=0.1, bim_iterations=10,
                           pgd_step=0.02, pgd_iterations=40),
    "fashion": AttackBudget(eps=0.6, bim_step=0.1, bim_iterations=10,
                            pgd_step=0.02, pgd_iterations=40),
    "objects": AttackBudget(eps=0.06, bim_step=0.016, bim_iterations=10,
                            pgd_step=0.016, pgd_iterations=20),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A full preset: per-dataset configs plus the preset flag.

    ``backend`` names the :mod:`repro.backend` implementation the
    experiment runners activate (``numpy`` or ``fast``).  ``None`` — the
    shipped default — inherits whatever is already active, so the
    ``REPRO_BACKEND`` environment default and the CLI's ``--backend``
    override keep working; pin it with
    ``dataclasses.replace(config, backend="fast")`` to make a preset
    carry its own execution path.
    """

    fast: bool
    datasets: Dict[str, DatasetConfig] = field(default_factory=dict)
    backend: Optional[str] = None

    def dataset(self, name: str) -> DatasetConfig:
        if name not in self.datasets:
            raise KeyError(
                f"unknown dataset {name!r}; choose from {sorted(self.datasets)}")
        return self.datasets[name]


def _fast_preset() -> ExperimentConfig:
    datasets = {
        "digits": DatasetConfig(
            name="digits", train_size=2048, test_size=256, eval_size=96,
            epochs=16, batch_size=64, model_width=8, lr=1e-3,
            budget=_PAPER_BUDGETS["digits"],
        ),
        "fashion": DatasetConfig(
            name="fashion", train_size=2048, test_size=256, eval_size=96,
            epochs=16, batch_size=64, model_width=8, lr=1e-3,
            budget=_PAPER_BUDGETS["fashion"],
        ),
        "objects": DatasetConfig(
            name="objects", train_size=2048, test_size=256, eval_size=96,
            epochs=12, batch_size=64, model_width=8, lr=1e-3,
            budget=_PAPER_BUDGETS["objects"],
        ),
    }
    return ExperimentConfig(fast=True, datasets=datasets)


def _full_preset() -> ExperimentConfig:
    # Paper-scale runs are hour-long (digits/fashion) to day-long
    # (objects): checkpoint sparsely, probe robustness periodically, and
    # anneal the rate over the long tail.  The FAST preset keeps
    # ``scheduler="none"`` so the pinned artifact numbers never move.
    gray_schedule = TrainingSchedule(scheduler="warmup-cosine",
                                     lr_warmup_epochs=5, checkpoint_every=5,
                                     probe_every=10, probe_size=256)
    rgb_schedule = TrainingSchedule(scheduler="warmup-cosine",
                                    lr_warmup_epochs=10, checkpoint_every=10,
                                    probe_every=25, probe_size=256)
    datasets = {
        "digits": DatasetConfig(
            name="digits", train_size=60_000, test_size=10_000,
            eval_size=10_000, epochs=80, batch_size=128, model_width=32,
            lr=1e-3, budget=_PAPER_BUDGETS["digits"],
            train_attack_iterations=40, warmup_epochs=8,
            schedule=gray_schedule,
        ),
        "fashion": DatasetConfig(
            name="fashion", train_size=60_000, test_size=10_000,
            eval_size=10_000, epochs=80, batch_size=128, model_width=32,
            lr=1e-3, budget=_PAPER_BUDGETS["fashion"],
            train_attack_iterations=40, warmup_epochs=8,
            schedule=gray_schedule,
        ),
        "objects": DatasetConfig(
            name="objects", train_size=50_000, test_size=10_000,
            eval_size=10_000, epochs=300, batch_size=128, model_width=32,
            lr=1e-3, budget=_PAPER_BUDGETS["objects"],
            train_attack_iterations=20, warmup_epochs=24,
            schedule=rgb_schedule,
        ),
    }
    return ExperimentConfig(fast=False, datasets=datasets)


def _bench_preset() -> ExperimentConfig:
    """FAST with halved sizes/epochs: identical code paths, CI wall-clock.

    Used by the pytest-benchmark harness so a full
    ``pytest benchmarks/ --benchmark-only`` sweep stays in CPU-minutes;
    the FAST preset regenerates the EXPERIMENTS.md numbers.
    """
    import dataclasses

    fast = _fast_preset().datasets
    datasets = {
        # The gray datasets halve cleanly; the RGB dataset keeps its FAST
        # geometry — the zero-knowledge defenses on it are exactly the
        # configurations whose accuracy collapses when noise exposure is
        # halved, which would turn the Sec. V-A shape checks into noise.
        "digits": dataclasses.replace(fast["digits"], train_size=1024,
                                      test_size=128, eval_size=64,
                                      epochs=8, warmup_epochs=2),
        "fashion": dataclasses.replace(fast["fashion"], train_size=1024,
                                       test_size=128, eval_size=64,
                                       epochs=8, warmup_epochs=2),
        "objects": fast["objects"],
    }
    return ExperimentConfig(fast=True, datasets=datasets)


FAST = _fast_preset()
FULL = _full_preset()
BENCH = _bench_preset()


def get_config(preset: str = "fast") -> ExperimentConfig:
    """Look up a preset by name (``fast``, ``bench`` or ``full``)."""
    presets = {"fast": FAST, "full": FULL, "bench": BENCH}
    key = preset.lower()
    if key not in presets:
        raise KeyError(f"unknown preset {preset!r}; choose from {sorted(presets)}")
    return presets[key]
