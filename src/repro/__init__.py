"""Reproduction of *ZK-GanDef: A GAN based Zero Knowledge Adversarial
Training Defense for Neural Networks* (Liu, Khalil, Khreishah — DSN 2019).

Top-level layout (see DESIGN.md for the full inventory):

* :mod:`repro.backend` — pluggable array-backend layer (``ArrayOps``
  protocol; numpy reference and bit-identical fast CPU backend) the
  whole stack dispatches through,
* :mod:`repro.nn` — autodiff neural-network substrate over the backend
  seam,
* :mod:`repro.data` — synthetic dataset substrate + preprocessing module,
* :mod:`repro.attacks` — FGSM / BIM / PGD / DeepFool / CW / MIM attacks,
* :mod:`repro.defenses` — Vanilla, CLP, CLS, ZK-GanDef, FGSM-Adv, PGD-Adv,
  PGD-GanDef trainers,
* :mod:`repro.train` — callback-driven training loop: atomic
  checkpoint/resume, LR schedulers, divergence guard, in-training
  robustness probes, JSONL metrics,
* :mod:`repro.models` — LeNet / allCNN classifier families,
* :mod:`repro.eval` — the Figure 3 evaluation framework, metrics and the
  black-box transfer extension,
* :mod:`repro.serve` — in-process inference serving: model registry,
  micro-batching, discriminator-gated adversarial filtering, prediction
  caching,
* :mod:`repro.experiments` — one runner per paper table / figure,
* :mod:`repro.cli` — ``python -m repro <artifact>``.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
