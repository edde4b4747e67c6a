"""The array-backend seam, end to end.

Walks the three ways to pick a backend (global switch, scoped context
manager, per-run argument), demonstrates that the reference and fast CPU
backends produce **bit-identical** results from a single forward pass all
the way to a trained-and-attacked classifier, and measures the speedup the
fast backend buys on the attack hot path.

Run from the repo root:

    PYTHONPATH=src python examples/backend_switch.py
"""

import time

import numpy as np

import repro.backend as backend
from repro import nn
from repro.data import load_split
from repro.defenses import VanillaTrainer
from repro.eval.engine import AttackSuite
from repro.experiments.config import get_config
from repro.models import build_classifier

SEED = 0


def train_and_attack(backend_name):
    """One seeded train-then-attack pipeline under ``backend_name``."""
    with backend.use(backend_name):                 # scoped: restores on exit
        split = load_split("digits", 512, 128, seed=SEED)
        model = build_classifier("digits", width=8, seed=SEED)
        trainer = VanillaTrainer(model, epochs=2, batch_size=64, lr=1e-3,
                                 seed=SEED)
        trainer.fit(split.train)

        cfg = get_config("fast").dataset("digits")
        attacks = cfg.budget.build(fast=False, seed=SEED, early_stop=True)
        suite = AttackSuite(attacks)
        start = time.perf_counter()
        result = suite.run(model, split.test.images[:48],
                           split.test.labels[:48])
        seconds = time.perf_counter() - start
        return model.state_dict(), result.accuracy, seconds


def main():
    print(f"registered backends: {', '.join(backend.available_backends())}")
    print(f"active (process default): {backend.active().name}\n")

    # 1. Selection mechanics -------------------------------------------- #
    backend.use("fast")                     # bare call: global switch
    assert backend.active().name == "fast"
    with backend.use("numpy"):              # context manager: scoped
        assert backend.active().name == "numpy"
    assert backend.active().name == "fast"  # restored
    backend.use("numpy")                    # back to the reference

    # 2. Bit-identity across CPU backends ------------------------------- #
    runs = {name: train_and_attack(name) for name in ("numpy", "fast")}
    weights_n, acc_n, sec_n = runs["numpy"]
    weights_f, acc_f, sec_f = runs["fast"]

    for key in weights_n:
        np.testing.assert_array_equal(weights_n[key], weights_f[key])
    print("trained weights:   bit-identical across numpy/fast")
    assert acc_n == acc_f
    row = "  ".join(f"{k}={v * 100:5.1f}%" for k, v in acc_n.items())
    print(f"attack accuracies: identical  ({row})")

    # 3. The speedup ----------------------------------------------------- #
    # (One-shot timing on a small slice; benchmarks/bench_backend.py is
    # the controlled, steady-state measurement.)
    print(f"attack suite:      numpy {sec_n:.2f}s  vs  fast {sec_f:.2f}s  "
          f"({sec_n / sec_f:.2f}x)")

    # 4. Backend-agnostic user code -------------------------------------- #
    # Tensors live on whatever backend is active; ops read identically.
    with backend.use("fast"):
        x = nn.Tensor(np.linspace(-1, 1, 12, dtype=np.float32).reshape(3, 4),
                      requires_grad=True)
        loss = (nn.functional.tanh(x) ** 2).sum()
        loss.backward()
        print(f"\nsample grad under {backend.active().name!r}: "
              f"dtype={x.grad.dtype}, ||g||={float(np.abs(x.grad).sum()):.4f}")


if __name__ == "__main__":
    main()
