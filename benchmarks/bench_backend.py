"""Backend performance tracking: ``python benchmarks/bench_backend.py``.

Measures, for both registered CPU backends:

* **attack-suite wall-clock** — the PGD/BIM/MIM grid at the paper's
  Sec. IV-C budgets (40-iteration PGD etc.) against a briefly-trained
  digits classifier, through the batched evaluation engine,
* **hot-loop wall-clock** — naive (``early_stop=False``) PGD/BIM/MIM on
  one fixed-shape batch, where every iteration is a same-shape gradient
  call,
* **training epoch wall-clock** — vanilla trainer epochs on the digits
  stand-in,
* **im2col / col2im microbenchmarks** — the conv workspace kernels in
  isolation, which is where the fast backend's buffer pool lives.

Results land in ``BENCH_backend.json`` (repo root by default) so the perf
trajectory is tracked from PR to PR; the ``speedup`` block records
reference-vs-fast ratios.

The script exits non-zero if the fast backend's attack-suite speedup
falls below the pinned floor (1.3x), so the CI bench lane catches
regressions; it also cross-checks that both backends measured identical
accuracies and byte-identical adversarial examples.

Usage::

    python benchmarks/bench_backend.py [--output PATH] [--quick]
"""

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import repro.backend as backend  # noqa: E402
from repro.data import load_split  # noqa: E402
from repro.defenses import VanillaTrainer  # noqa: E402
from repro.eval.engine import AttackSuite  # noqa: E402
from repro.experiments.config import get_config  # noqa: E402
from repro.models import build_classifier  # noqa: E402

SPEEDUP_FLOOR = 1.3
#: Hot-loop batch size: small, so per-iteration fixed costs (tape
#: construction, dispatch, allocation) are a visible slice of each
#: iteration rather than drowned by BLAS/fold kernel time.
HOT_LOOP_BATCH = 2
BACKENDS = ("numpy", "fast")


def train_victim(epochs, train_size, seed=0):
    split = load_split("digits", train_size, 256, seed=seed)
    model = build_classifier("digits", width=8, seed=seed)
    trainer = VanillaTrainer(model, epochs=epochs, batch_size=64, lr=1e-3,
                             seed=seed)
    start = time.perf_counter()
    trainer.fit(split.train)
    seconds = time.perf_counter() - start
    return model, split, seconds / epochs


def bench_attack_suite(model, split, eval_size):
    cfg = get_config("fast").dataset("digits")
    # Paper budgets: fast=False keeps the full Sec. IV-C iteration counts.
    pool = cfg.budget.build(fast=False, seed=0, early_stop=True)
    from repro.attacks import MIM

    attacks = {"pgd": pool["pgd"], "bim": pool["bim"],
               "mim": MIM(eps=cfg.budget.eps, step=pool["bim"].step,
                          iterations=pool["bim"].iterations,
                          early_stop=True)}
    suite = AttackSuite(attacks)
    images = split.test.images[:eval_size]
    labels = split.test.labels[:eval_size]
    # Three identical seeded runs: the first is the cold number, the last
    # is steady state — the attacks are deterministic, so run N+1 replays
    # run N's shapes and the fast backend's verify-then-trust caches are
    # warm from the second replay on (the grid workloads this tracks run
    # the suite once per defense x dataset cell against recurring shapes).
    runs = []
    accuracy = None
    for _ in range(3):
        result = suite.run(model, images, labels, model_name="vanilla",
                           dataset="digits")
        runs.append(result.generation_seconds)
        assert accuracy is None or accuracy == result.accuracy
        accuracy = result.accuracy
    return runs[-1], runs[0], accuracy


def bench_hot_loop(model, split, batch, repeats):
    """Naive fixed-shape PGD/BIM/MIM.

    With ``early_stop=False`` every iteration of every attack is a
    same-shape gradient call.  The first ``generate`` per attack is the
    cold number; steady state is the best of ``repeats`` further runs.
    Returns per-attack steady/cold seconds plus a digest of the
    adversarial batches so the caller can assert byte-identical outputs
    across backends.
    """
    cfg = get_config("fast").dataset("digits")
    pool = cfg.budget.build(fast=False, seed=0, early_stop=False)
    from repro.attacks import MIM

    attacks = {"pgd": pool["pgd"], "bim": pool["bim"],
               "mim": MIM(eps=cfg.budget.eps, step=pool["bim"].step,
                          iterations=pool["bim"].iterations,
                          early_stop=False)}
    images = split.test.images[:batch]
    labels = split.test.labels[:batch]
    steady, cold, digests = {}, {}, {}
    for name, attack in attacks.items():
        start = time.perf_counter()
        adv = attack.generate(model, images, labels)
        cold[name] = time.perf_counter() - start
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            adv = attack.generate(model, images, labels)
            best = min(best, time.perf_counter() - start)
        steady[name] = best
        digests[name] = hashlib.sha256(adv.tobytes()).hexdigest()
    return steady, cold, digests


def bench_im2col(repeats):
    b = backend.active()
    rng = np.random.default_rng(0)
    x = rng.normal(size=(64, 8, 28, 28)).astype(np.float32)
    cols_shape = None
    # warmup (also fills the fast backend's pool)
    cols = b.im2col(x, 5, 5, 1, 1, 2, 2)
    cols_shape = cols.shape
    b.release(cols)
    start = time.perf_counter()
    for _ in range(repeats):
        cols = b.im2col(x, 5, 5, 1, 1, 2, 2)
        b.release(cols)
    im2col_s = (time.perf_counter() - start) / repeats

    cols = b.im2col(x, 5, 5, 1, 1, 2, 2)
    start = time.perf_counter()
    for _ in range(repeats):
        b.col2im(cols, x.shape, 5, 5, 1, 1, 2, 2)
    col2im_s = (time.perf_counter() - start) / repeats
    b.release(cols)
    return im2col_s, col2im_s, cols_shape


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_out = os.path.join(os.path.dirname(__file__), "..",
                               "BENCH_backend.json")
    parser.add_argument("--output", default=os.path.normpath(default_out))
    parser.add_argument("--quick", action="store_true",
                        help="smaller victim / fewer repeats (smoke run)")
    args = parser.parse_args(argv)

    epochs = 2 if args.quick else 4
    train_size = 512 if args.quick else 1024
    eval_size = 32 if args.quick else 64
    repeats = 10 if args.quick else 30
    hot_repeats = 2 if args.quick else 4

    report = {"config": {"epochs": epochs, "train_size": train_size,
                         "eval_size": eval_size, "im2col_repeats": repeats,
                         "hot_loop_batch": HOT_LOOP_BATCH,
                         "hot_loop_repeats": hot_repeats,
                         "attack_budgets": "paper (Sec. IV-C)"},
              "per_backend": {}}
    accuracies = {}
    adv_digests = {}
    for name in BACKENDS:
        with backend.use(name):
            model, split, epoch_s = train_victim(epochs, train_size)
            suite_s, cold_s, accuracy = bench_attack_suite(model, split,
                                                           eval_size)
            hot_s, hot_cold_s, digests = bench_hot_loop(
                model, split, HOT_LOOP_BATCH, hot_repeats)
            im2col_s, col2im_s, cols_shape = bench_im2col(repeats)
        accuracies[name] = accuracy
        adv_digests[name] = digests
        report["per_backend"][name] = {
            "attack_suite_seconds": round(suite_s, 4),
            "attack_suite_cold_seconds": round(cold_s, 4),
            "hot_loop_seconds": {k: round(v, 4) for k, v in hot_s.items()},
            "hot_loop_cold_seconds": {k: round(v, 4)
                                      for k, v in hot_cold_s.items()},
            "hot_loop_total_seconds": round(sum(hot_s.values()), 4),
            "adversarial_digests": digests,
            "epoch_seconds": round(epoch_s, 4),
            "im2col_seconds": round(im2col_s, 6),
            "col2im_seconds": round(col2im_s, 6),
            "im2col_workspace": list(cols_shape),
        }
        print(f"[{name:5s}] attack-suite {suite_s:7.3f}s "
              f"(cold {cold_s:6.3f}s)   "
              f"hot-loop {sum(hot_s.values()) * 1e3:7.1f}ms   "
              f"epoch {epoch_s:6.3f}s   "
              f"im2col {im2col_s * 1e3:6.2f}ms   "
              f"col2im {col2im_s * 1e3:6.2f}ms")

    ref = report["per_backend"]["numpy"]
    fast = report["per_backend"]["fast"]
    report["speedup"] = {
        key.replace("_seconds", ""): round(ref[key] / fast[key], 3)
        for key in ("attack_suite_seconds", "hot_loop_total_seconds",
                    "epoch_seconds", "im2col_seconds", "col2im_seconds")
    }
    report["speedup_floor"] = SPEEDUP_FLOOR
    report["accuracies_identical"] = all(
        accuracies[name] == accuracies["numpy"] for name in BACKENDS)
    report["adversarial_identical"] = all(
        adv_digests[name] == adv_digests["numpy"] for name in BACKENDS)

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"speedups {report['speedup']}  ->  {args.output}")

    failures = []
    if not report["accuracies_identical"]:
        failures.append(
            f"backend accuracy mismatch: {accuracies}")
    if not report["adversarial_identical"]:
        failures.append(
            f"hot-loop adversarial outputs differ across backends: "
            f"{adv_digests}")
    if report["speedup"]["attack_suite"] < SPEEDUP_FLOOR:
        failures.append(
            f"attack-suite speedup {report['speedup']['attack_suite']} "
            f"below the {SPEEDUP_FLOOR}x floor")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
