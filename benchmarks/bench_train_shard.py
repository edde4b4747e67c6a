"""Data-parallel training perf tracking: ``python benchmarks/bench_train_shard.py``.

Measures, for each CPU backend, the epoch wall-clock of a digits
classifier trained through :class:`repro.train.parallel.ParallelTrainEngine`
under ``--workers`` in {1, 2, 4}:

* ``workers=1`` runs the sharded engine in-process — the engine's own
  bit-identity baseline (the legacy eager path computes a full-batch
  gradient whose BLAS contraction order differs, so it is not the
  comparison point);
* ``workers>1`` fans each mini-batch's gradient shards over a spawn
  pool, started *before* timing (a persistent pool is the deployment
  shape — ``repro train`` holds one for the whole run) so the number
  tracks gradient computation, not interpreter startups;
* the **merged-gradient digest equality assertion runs inline**: after
  every run the sha256 over the final parameters — the integral of every
  ordered all-reduce — must match the ``workers=1`` digest exactly, or
  the bench fails.  A speedup that changes results is a bug, not a
  result.

Results land in ``BENCH_train_shard.json`` together with the host's
usable CPUs and the BLAS threads per process (one: see
:mod:`repro.utils.threads`).  Two speedup floors are enforced (non-zero
exit) whenever the host exposes at least as many usable CPUs as the
floor has workers: ≥0.8x at 2 workers, which catches oversubscription
(the shuffle, augmentation, all-reduce and optimizer step stay serial in
the parent, so 2 workers promise no speed-up), and ≥1.7x at 4.  On
smaller hosts the measured numbers are still recorded, with the floor
marked ``enforced: false`` and the honest reason, because process
parallelism cannot beat a one-core budget and a faked number would
poison the trajectory.

Usage::

    python benchmarks/bench_train_shard.py [--output PATH] [--quick]
"""

import argparse
import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

import repro.backend as backend  # noqa: E402
from repro.data import load_split  # noqa: E402
from repro.defenses import VanillaTrainer  # noqa: E402
from repro.models import build_classifier  # noqa: E402
from repro.train.parallel import ParallelTrainEngine  # noqa: E402
from repro.utils.threads import blas_threads, usable_cpus  # noqa: E402

#: workers -> minimum speedup over one process, enforced whenever the
#: host exposes at least that many usable CPUs (see the module doc).
SPEEDUP_FLOORS = {2: 0.8, 4: 1.7}
WORKER_COUNTS = (1, 2, 4)
BACKENDS = ("numpy", "fast")
SHARD_SIZE = 16


def param_digest(trainer):
    """sha256 over the final weights — every merged gradient's integral."""
    digest = hashlib.sha256()
    for mod in sorted(trainer.checkpoint_modules()):
        module = trainer.checkpoint_modules()[mod]
        for name, p in module.named_parameters():
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(
                backend.active().to_numpy(p.data)).tobytes())
    return digest.hexdigest()


def bench_workers(split, epochs, batch_size, workers):
    """Per-epoch wall-clock at ``workers`` (pool pre-started); returns
    (steady seconds, cold seconds, final-parameter digest)."""
    model = build_classifier("digits", width=8, seed=0)
    trainer = VanillaTrainer(model, epochs=epochs, batch_size=batch_size,
                             lr=1e-3, seed=0)
    engine = ParallelTrainEngine(trainer, workers=workers,
                                 shard_size=SHARD_SIZE).attach()
    try:
        if engine.pool is not None:
            engine.pool.ensure()        # spawn outside the timer
        history = trainer.fit(split.train)
        seconds = history.epoch_seconds
        # Epoch 0 pays the cold costs (module publication, worker-side
        # unpickling, fast-path cache fills); later epochs are what long
        # runs see.
        return float(np.mean(seconds[1:])), float(seconds[0]), \
            param_digest(trainer)
    finally:
        engine.close()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_out = os.path.join(os.path.dirname(__file__), "..",
                               "BENCH_train_shard.json")
    parser.add_argument("--output", default=os.path.normpath(default_out))
    parser.add_argument("--quick", action="store_true",
                        help="smaller training set / fewer epochs (smoke)")
    args = parser.parse_args(argv)

    epochs = 2 if args.quick else 3
    train_size = 256 if args.quick else 1024
    batch_size = 64

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
                   "batch_size": batch_size, "shard_size": SHARD_SIZE,
                   "worker_counts": list(WORKER_COUNTS),
                   "defense": "vanilla", "dataset": "digits"},
        "usable_cpus": cpus,
        "floors": floors,
        "per_backend": {},
    }

    failures = []
    for name in BACKENDS:
        with backend.use(name):
            split = load_split("digits", train_size, 64, seed=0)
            per_workers = {}
            baseline_digest = None
            for workers in WORKER_COUNTS:
                steady, cold, digest = bench_workers(
                    split, epochs, batch_size, workers)
                if baseline_digest is None:
                    baseline_digest = digest
                elif digest != baseline_digest:
                    failures.append(
                        f"[{name}] workers={workers} changed the merged "
                        "gradients — digest equality violated")
                per_workers[str(workers)] = {
                    "epoch_seconds": round(steady, 4),
                    "epoch_cold_seconds": round(cold, 4),
                }
            base = per_workers["1"]["epoch_seconds"]
            speedups = {w: round(base / v["epoch_seconds"], 3)
                        for w, v in per_workers.items()}
            report["per_backend"][name] = {
                "per_workers": per_workers,
                "speedup_vs_single_process": speedups,
                "gradient_digest": baseline_digest,
                "digest_equality": "verified inline",
            }
            for w, v in per_workers.items():
                print(f"[{name:5s}] workers={w}: "
                      f"{v['epoch_seconds']:7.3f}s/epoch "
                      f"(cold {v['epoch_cold_seconds']:7.3f}s)  "
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
