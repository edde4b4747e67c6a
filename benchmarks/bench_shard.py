"""Sharded-evaluation perf tracking: ``python benchmarks/bench_shard.py``.

Measures, for each CPU backend, the attack-suite wall-clock (PGD/BIM/MIM
at the paper's Sec. IV-C budgets against a briefly-trained digits
classifier) under ``--workers`` in {1, 2, 4}:

* ``workers=1`` is the untouched single-process engine — the baseline;
* ``workers>1`` fans the (attack, shard) grid over a spawn pool; the pool
  is started *before* timing (a persistent pool is the deployment shape —
  table3 reuses one across seven defenses) so the number tracks crafting,
  not interpreter startups;
* the **merge-equality assertion runs inline**: every worker count must
  reproduce the single-process accuracies exactly, or the bench fails —
  a speedup that changes results is a bug, not a result.

Results land in ``BENCH_shard.json`` together with the host's usable
CPUs and the BLAS threads per process (one: see
:mod:`repro.utils.threads`).  Two speedup floors are enforced (non-zero
exit) whenever the host exposes at least as many usable CPUs as the
floor has workers: ≥1.3x at 2 workers and ≥1.7x at 4.  On smaller hosts
the measured numbers are still recorded, with the floor marked
``enforced: false`` and the honest reason, because process parallelism
cannot beat a one-core budget and a faked number would poison the
trajectory.

Usage::

    python benchmarks/bench_shard.py [--output PATH] [--quick]
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import repro.backend as backend  # noqa: E402
from repro.data import load_split  # noqa: E402
from repro.defenses import VanillaTrainer  # noqa: E402
from repro.eval.engine import AttackSuite  # noqa: E402
from repro.experiments.config import get_config  # noqa: E402
from repro.models import build_classifier  # noqa: E402
from repro.utils.threads import blas_threads, usable_cpus  # noqa: E402

#: workers -> minimum speedup over one process, enforced whenever the
#: host exposes at least that many usable CPUs.
SPEEDUP_FLOORS = {2: 1.3, 4: 1.7}
WORKER_COUNTS = (1, 2, 4)
BACKENDS = ("numpy", "fast")
SHARD_SIZE = 16


def train_victim(epochs, train_size, test_size, seed=0):
    split = load_split("digits", train_size, test_size, seed=seed)
    model = build_classifier("digits", width=8, seed=seed)
    VanillaTrainer(model, epochs=epochs, batch_size=64, lr=1e-3,
                   seed=seed).fit(split.train)
    return model, split


def build_attacks():
    cfg = get_config("fast").dataset("digits")
    # Paper budgets: fast=False keeps the full Sec. IV-C iteration counts.
    pool = cfg.budget.build(fast=False, seed=0, early_stop=True)
    from repro.attacks import MIM

    return {"pgd": pool["pgd"], "bim": pool["bim"],
            "mim": MIM(eps=cfg.budget.eps, step=pool["bim"].step,
                       iterations=pool["bim"].iterations, early_stop=True)}


def result_key(result):
    return (result.clean_accuracy,
            [(r.attack, r.accuracy, r.flipped, r.evaluated)
             for r in result.records])


def bench_workers(model, split, eval_size, workers):
    """Wall-clock of one suite run at ``workers`` (pool pre-started)."""
    attacks = build_attacks()
    images = split.test.images[:eval_size]
    labels = split.test.labels[:eval_size]
    suite = AttackSuite(attacks, workers=workers,
                        shard_size=SHARD_SIZE if workers > 1 else None)
    try:
        if suite.crafter is not None and suite.crafter.parallel:
            suite.crafter._ensure_pool()    # spawn outside the timer
        # Two runs: cold fills the fast backend's verify-then-trust
        # caches (and the workers' counterparts); steady-state is the
        # number grid workloads see.
        results, seconds = [], []
        for _ in range(2):
            start = time.perf_counter()
            results.append(suite.run(model, images, labels,
                                     model_name="vanilla",
                                     dataset="digits"))
            seconds.append(time.perf_counter() - start)
        assert result_key(results[0]) == result_key(results[1])
        return seconds[-1], seconds[0], result_key(results[-1])
    finally:
        suite.close()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_out = os.path.join(os.path.dirname(__file__), "..",
                               "BENCH_shard.json")
    parser.add_argument("--output", default=os.path.normpath(default_out))
    parser.add_argument("--quick", action="store_true",
                        help="smaller victim / eval set (smoke run)")
    args = parser.parse_args(argv)

    epochs = 2 if args.quick else 4
    train_size = 512 if args.quick else 1024
    eval_size = 48 if args.quick else 128

    cpus = usable_cpus()
    floors = {str(w): {"speedup": floor, "enforced": cpus >= w}
              for w, floor in SPEEDUP_FLOORS.items()}
    for w, floor in floors.items():
        if not floor["enforced"]:
            floor["skip_reason"] = (
                f"host exposes {cpus} usable CPU(s), fewer than the "
                f"floor's {w} workers")
    report = {
        "config": {"epochs": epochs, "train_size": train_size,
                   "eval_size": eval_size, "shard_size": SHARD_SIZE,
                   "worker_counts": list(WORKER_COUNTS),
                   "attack_budgets": "paper (Sec. IV-C)"},
        "usable_cpus": cpus,
        "floors": floors,
        "per_backend": {},
    }

    failures = []
    for name in BACKENDS:
        with backend.use(name):
            model, split = train_victim(epochs, train_size,
                                        max(eval_size, 256))
            per_workers = {}
            baseline_key = None
            for workers in WORKER_COUNTS:
                steady, cold, key = bench_workers(model, split, eval_size,
                                                  workers)
                if baseline_key is None:
                    baseline_key = key
                elif key != baseline_key:
                    failures.append(
                        f"[{name}] workers={workers} changed results — "
                        "merge equality violated")
                per_workers[str(workers)] = {
                    "suite_seconds": round(steady, 4),
                    "suite_cold_seconds": round(cold, 4),
                }
            base = per_workers["1"]["suite_seconds"]
            speedups = {w: round(base / v["suite_seconds"], 3)
                        for w, v in per_workers.items()}
            report["per_backend"][name] = {
                "per_workers": per_workers,
                "speedup_vs_single_process": speedups,
                "merge_equality": "verified inline",
            }
            for w, v in per_workers.items():
                print(f"[{name:5s}] workers={w}: "
                      f"{v['suite_seconds']:7.3f}s "
                      f"(cold {v['suite_cold_seconds']:7.3f}s)  "
                      f"speedup {speedups[w]:5.2f}x")
            for w, floor in floors.items():
                if floor["enforced"] and speedups[w] < floor["speedup"]:
                    failures.append(
                        f"[{name}] {speedups[w]}x at {w} workers is below "
                        f"the {floor['speedup']}x floor")

    # Pinned when this process built its first backend; spawn-pool
    # workers pin theirs the same way.
    report["blas_threads"] = blas_threads()
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for w, floor in floors.items():
        word = "enforced" if floor["enforced"] else "advisory"
        print(f"{floor['speedup']}x floor at {w} workers: {word}")
    print(f"blas_threads={report['blas_threads']} -> {args.output}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
