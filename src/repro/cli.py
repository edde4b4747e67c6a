"""Command-line entry point: ``python -m repro <experiment> [options]``.

Wraps the experiment registry so every paper artifact can be regenerated
without writing code:

    python -m repro list
    python -m repro table3 --dataset digits --preset fast
    python -m repro table4 --dataset objects
    python -m repro figure5-time --dataset digits
    python -m repro figure5-convergence
    python -m repro ablation-gamma --dataset digits
    python -m repro eval-suite --dataset digits --defense pgd-adv \
        --attacks fgsm,pgd,mim --cache-dir .adv-cache
    python -m repro train --defense gandef --dataset objects \
        --checkpoint-dir runs/gandef --resume --probe-every 2
    python -m repro serve --model runs/gandef/checkpoint.npz \
        --dataset objects --max-batch 32 --deadline-ms 5 --gate disc
    python -m repro harden --model zk-gandef --dataset digits \
        --cycles 2 --requests 64 --disc-passes 2 --harden-dir runs/harden
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from .backend import available_backends
from .eval.reporting import format_accuracy_table, format_series
from .experiments import REGISTRY, get_experiment
from .experiments.config import DEFENSE_NAMES
from .experiments.eval_suite import ATTACK_POOL_NAMES
from .experiments.table3 import EXAMPLE_TYPES, render_table3
from .serve.gate import GATE_KINDS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate ZK-GanDef paper artifacts "
                    "(see DESIGN.md for the experiment index)",
    )
    parser.add_argument("experiment",
                        help="experiment id or 'list' to enumerate them")
    parser.add_argument("extra", nargs="*", metavar="...",
                        help="subcommand arguments (only 'obs' takes any: "
                             "repro obs report <trace.jsonl>)")
    parser.add_argument("--dataset", default="digits",
                        choices=["digits", "fashion", "objects"],
                        help="dataset (stand-ins for MNIST / Fashion-MNIST "
                             "/ CIFAR10)")
    parser.add_argument("--preset", default="fast",
                        choices=["fast", "bench", "full"],
                        help="experiment scale")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--backend", default=None,
                        choices=list(available_backends()),
                        help="array backend executing the experiment "
                             "(train, eval-suite, table3, table4): 'numpy' "
                             "is the bit-exact reference, 'fast' the "
                             "allocation-avoiding CPU path with identical "
                             "seeded results; default: the "
                             "REPRO_BACKEND environment default")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache crafted adversarial batches under DIR "
                             "keyed by (weights, attack config, data); "
                             "repeated runs replay them bit-for-bit "
                             "(table3, table4, eval-suite); safe to share "
                             "across concurrent processes and --workers "
                             "pools (atomic entries + journaled recency). "
                             "Entries are shard-layout-specific: "
                             "--workers 1 keys full batches, --workers N "
                             "keys per-shard batches, so switching "
                             "between them regenerates rather than "
                             "replays")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="shard adversarial crafting (table3, table4, "
                             "eval-suite; figure5-time when --probe-every "
                             "is set) and, for train, per-batch gradient "
                             "computation over N spawned worker "
                             "processes; results are identical at any N "
                             "— the shard layout never depends on it. "
                             "For train, --workers 1 runs the sharded "
                             "engine in-process (the bit-identity "
                             "baseline) while omitting the flag keeps "
                             "the legacy eager path (default: "
                             "single-process)")
    suite = parser.add_argument_group(
        "eval-suite options",
        "evaluate one defense against the attack grid through the batched "
        "engine (per-example early stopping + shared clean forward pass)")
    suite.add_argument("--defense", default="vanilla",
                       choices=list(DEFENSE_NAMES) + ["gandef"],
                       help="defense to train and attack ('gandef' is an "
                            "alias for the headline zk-gandef)")
    suite.add_argument("--attacks", default=",".join(ATTACK_POOL_NAMES),
                       metavar="A,B,...",
                       help="comma-separated subset of "
                            f"{{{','.join(ATTACK_POOL_NAMES)}}}")
    suite.add_argument("--no-early-stop", action="store_true",
                       help="run iterative attacks to their full iteration "
                            "budget even on already-fooled examples "
                            "(the pre-engine behavior; slower, same "
                            "accuracies)")
    train = parser.add_argument_group(
        "train options",
        "restartable training via the callback-driven train subsystem "
        "(checkpoint/resume, LR schedule, divergence guard, JSONL metrics, "
        "in-training robustness probes); --defense selects what to train")
    train.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="write atomic full-state checkpoints (weights, "
                            "optimizer moments, RNG streams, history) under "
                            "DIR; metrics.jsonl lands there too")
    train.add_argument("--resume", action="store_true",
                       help="continue from DIR's checkpoint if one exists; "
                            "the resumed run is bit-identical to an "
                            "uninterrupted one")
    train.add_argument("--probe-every", type=int, default=None, metavar="K",
                       help="run the attack suite on a held-out slice every "
                            "K epochs, streaming clean/robust accuracy "
                            "into the metrics log (0 disables; default: "
                            "the preset's schedule)")
    train.add_argument("--epochs", type=int, default=None,
                       help="override the preset's epoch budget")
    serve = parser.add_argument_group(
        "serve options",
        "in-process inference serving (repro.serve): micro-batched "
        "forwards on the checkpoint's producing backend, "
        "discriminator-gated adversarial filtering, prediction caching; "
        "measured against a seeded clean+PGD traffic mix")
    serve.add_argument("--model", default="gandef", metavar="PATH|DEFENSE",
                       help="what to serve: a training-checkpoint path "
                            "(from repro train --checkpoint-dir) or a "
                            "defense name trained on the fly at the "
                            "preset's scale (default: gandef)")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="largest coalesced batch the server forwards "
                            "(default: 32)")
    serve.add_argument("--deadline-ms", type=float, default=5.0,
                       help="oldest-request age forcing a (possibly "
                            "ragged) flush, bounding latency at low load "
                            "(default: 5)")
    serve.add_argument("--gate", default="auto",
                       choices=list(GATE_KINDS),
                       help="adversarial-input filter: 'disc' is the "
                            "GanDef discriminator, 'confidence' the "
                            "softmax fallback, 'auto' picks by "
                            "checkpoint, 'none' disables (default: auto)")
    serve.add_argument("--requests", type=int, default=256,
                       help="synthetic requests in the measured load; for "
                            "serve-http, 0 serves until interrupted "
                            "instead of self-testing (default: 256)")
    serve.add_argument("--adv-fraction", type=float, default=0.5,
                       metavar="F",
                       help="fraction of generated requests drawn from "
                            "the PGD pool instead of clean traffic "
                            "(serve, serve-http, harden; default: 0.5)")
    serve.add_argument("--quarantine-dir", default=None, metavar="DIR",
                       help="store gate-flagged examples under DIR "
                            "(content-addressed, multi-process safe) for "
                            "later repro harden fine-tuning; omitting "
                            "keeps the serve path byte-identical to a "
                            "sink-less server")
    http = parser.add_argument_group(
        "serve-http options",
        "HTTP front on the serving subsystem (repro.serve.http): JSON "
        "endpoints with API-key auth, per-client token-bucket rate "
        "limiting, and bounded-queue backpressure (429 + Retry-After); "
        "--procs runs N SO_REUSEPORT workers sharing one --cache-dir "
        "prediction cache")
    http.add_argument("--host", default="127.0.0.1",
                      help="address to bind (default: 127.0.0.1)")
    http.add_argument("--port", type=int, default=0,
                      help="port to bind; 0 picks a free one "
                           "(--procs > 1 needs an explicit port)")
    http.add_argument("--api-keys", default=None,
                      metavar="CLIENT:KEY[,CLIENT:KEY...]",
                      help="accepted API keys with per-key client "
                           "identities; omitting disables auth "
                           "(development only)")
    http.add_argument("--rate", type=float, default=None, metavar="RPS",
                      help="per-client token-bucket rate limit in "
                           "requests/second (default: unlimited)")
    http.add_argument("--burst", type=float, default=None,
                      help="token-bucket burst capacity "
                           "(default: max(rate, 1))")
    http.add_argument("--queue-limit", type=int, default=1024,
                      metavar="EXAMPLES",
                      help="admitted-but-unanswered examples before new "
                           "requests get 429 + Retry-After "
                           "(default: 1024)")
    http.add_argument("--procs", type=int, default=1, metavar="N",
                      help="worker processes sharing the port via "
                           "SO_REUSEPORT (default: 1, in-process)")
    http.add_argument("--target-rps", type=float, default=None,
                      help="pace the self-test's offered load at this "
                           "request rate (default: as fast as the "
                           "closed loop goes)")
    harden = parser.add_argument_group(
        "harden options",
        "the online hardening loop (repro.harden): serve seeded traffic "
        "through the gate, quarantine what it flags, fine-tune the "
        "discriminator on the quarantine, canary the candidate, and "
        "promote or reject it; --model/--gate/--requests/--epochs/"
        "--workers/--adv-fraction apply as for serve")
    harden.add_argument("--cycles", type=int, default=1,
                        help="full serve-quarantine-fine-tune-canary-swap "
                             "cycles to run (default: 1)")
    harden.add_argument("--harden-dir", default="harden", metavar="DIR",
                        help="workdir for per-cycle artifacts: base "
                             "checkpoint, cycle_NNN/quarantine, "
                             "cycle_NNN/staging (default: harden)")
    harden.add_argument("--finetune-epochs", type=int, default=1,
                        metavar="E",
                        help="continuation epochs on the clean split per "
                             "cycle before discriminator anchoring "
                             "(default: 1)")
    harden.add_argument("--disc-passes", type=int, default=1, metavar="P",
                        help="discriminator anchor passes over the "
                             "quarantine per cycle (default: 1)")
    harden.add_argument("--max-fpr-regression", type=float, default=0.05,
                        metavar="B",
                        help="canary bound: reject a candidate whose "
                             "clean false-positive rate exceeds the "
                             "baseline's by more than B (default: 0.05)")
    harden.add_argument("--max-robust-regression", type=float,
                        default=0.05, metavar="B",
                        help="canary bound: reject a candidate whose "
                             "robust accuracy falls more than B below "
                             "the baseline's (default: 0.05)")
    return parser


def _print_listing() -> None:
    for key, exp in REGISTRY.items():
        print(f"{key:22s} {exp.artifact:28s} {exp.description}")
    print(f"{'serve':22s} {'serving subsystem':28s} "
          "micro-batched, discriminator-gated inference serving of one "
          "defense checkpoint")
    print(f"{'serve-http':22s} {'HTTP serving tier':28s} "
          "the same server behind authenticated, rate-limited, "
          "backpressured HTTP endpoints")
    print(f"{'harden':22s} {'online hardening loop':28s} "
          "serve, quarantine flagged traffic, fine-tune the "
          "discriminator on it, canary, promote or reject")
    print(f"{'obs':22s} {'observability tools':28s} "
          "aggregate a trace JSONL into a per-stage latency/throughput "
          "report (repro obs report <trace.jsonl>)")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        _print_listing()
        return 0
    key = args.experiment
    if key == "obs":
        # Deferred: the report reader is pure stdlib, but keep the CLI
        # module import-light anyway.
        from .obs.report import run_obs_cli
        return run_obs_cli(args.extra)
    if args.extra:
        print(f"unexpected arguments for {key}: {' '.join(args.extra)} "
              "(only 'obs' takes positional arguments)")
        return 2
    if key == "serve":
        try:
            return _run_serve_command(args)
        except ValueError as error:
            print(error)
            return 2
    if key == "serve-http":
        try:
            return _run_serve_http_command(args)
        except (ValueError, OSError) as error:
            print(error)
            return 2
    if key == "harden":
        try:
            return _run_harden_command(args)
        except (ValueError, OSError) as error:
            print(error)
            return 2
    try:
        experiment = get_experiment(key)
    except KeyError as error:
        print(error)
        return 2

    ignored = []
    if key not in ("eval-suite", "train") and args.defense != "vanilla":
        ignored.append("--defense")
    if args.backend is not None and key not in (
            "table3", "table4", "eval-suite", "train"):
        ignored.append("--backend")
    workers_apply_to = ["table3", "table4", "eval-suite", "train"]
    if args.probe_every:
        # figure5-time only crafts (and thus only parallelizes) when it
        # probes; without --probe-every the flag would be a silent no-op.
        workers_apply_to.append("figure5-time")
    if args.workers is not None and key not in workers_apply_to:
        ignored.append("--workers")
    for flag, value, default in (("--model", args.model, "gandef"),
                                 ("--max-batch", args.max_batch, 32),
                                 ("--deadline-ms", args.deadline_ms, 5.0),
                                 ("--gate", args.gate, "auto"),
                                 ("--requests", args.requests, 256),
                                 ("--host", args.host, "127.0.0.1"),
                                 ("--port", args.port, 0),
                                 ("--api-keys", args.api_keys, None),
                                 ("--rate", args.rate, None),
                                 ("--burst", args.burst, None),
                                 ("--queue-limit", args.queue_limit, 1024),
                                 ("--procs", args.procs, 1),
                                 ("--target-rps", args.target_rps, None),
                                 ("--adv-fraction", args.adv_fraction, 0.5),
                                 ("--quarantine-dir", args.quarantine_dir,
                                  None),
                                 ("--cycles", args.cycles, 1),
                                 ("--harden-dir", args.harden_dir,
                                  "harden"),
                                 ("--finetune-epochs",
                                  args.finetune_epochs, 1),
                                 ("--disc-passes", args.disc_passes, 1),
                                 ("--max-fpr-regression",
                                  args.max_fpr_regression, 0.05),
                                 ("--max-robust-regression",
                                  args.max_robust_regression, 0.05)):
        if value != default:
            ignored.append(flag)
    if key != "eval-suite":
        if args.attacks != ",".join(ATTACK_POOL_NAMES):
            ignored.append("--attacks")
        if args.no_early_stop:
            ignored.append("--no-early-stop")
    if key != "train":
        if args.checkpoint_dir is not None and key not in (
                "figure5-time", "figure5-convergence"):
            ignored.append("--checkpoint-dir")
        if args.resume and key not in ("figure5-time",
                                       "figure5-convergence"):
            ignored.append("--resume")
        if args.probe_every is not None and key != "figure5-time":
            ignored.append("--probe-every")
        if args.epochs is not None:
            ignored.append("--epochs")
    if ignored:
        print(f"note: {', '.join(ignored)} does not apply to {key} "
              "and is ignored")
    try:
        return _dispatch(key, args, experiment)
    except ValueError as error:
        # Runners raise ValueError for user-input problems (e.g. --resume
        # without --checkpoint-dir); render them as clean CLI errors.
        print(error)
        return 2


def _run_serve_command(args) -> int:
    # Deferred: the serve runner pulls in the trainer/attack stack.
    from .serve.run import run_serve

    report = run_serve(
        model=args.model, dataset=args.dataset, preset=args.preset,
        seed=args.seed, backend=args.backend, max_batch=args.max_batch,
        deadline_ms=args.deadline_ms, gate=args.gate,
        requests=args.requests, adv_fraction=args.adv_fraction,
        quarantine_dir=args.quarantine_dir, verbose=True)
    stats = report.stats_snapshot
    print(f"served {stats['examples']} examples in {stats['batches']} "
          f"batches (mean size {stats['mean_batch_size']}) on "
          f"{report.entry.backend}")
    print(f"  throughput {report.load.throughput:8.1f} examples/s   "
          f"latency p50 {stats['latency_p50_ms']:.2f}ms  "
          f"p95 {stats['latency_p95_ms']:.2f}ms")
    print(f"  accuracy on served traffic {report.served_accuracy * 100:.2f}%"
          f"   prediction-cache hits {stats['cache_hits']}")
    print(f"  gate [{report.gate_kind}]: {report.gate_metrics}")
    return 0


def _run_serve_http_command(args) -> int:
    # Deferred: the HTTP runner pulls in the trainer/attack stack.
    from .serve.http_run import run_serve_http

    report = run_serve_http(
        model=args.model, dataset=args.dataset, preset=args.preset,
        seed=args.seed, backend=args.backend, max_batch=args.max_batch,
        deadline_ms=args.deadline_ms, gate=args.gate,
        host=args.host, port=args.port, api_keys=args.api_keys,
        rate=args.rate, burst=args.burst, queue_limit=args.queue_limit,
        cache_dir=args.cache_dir, quarantine_dir=args.quarantine_dir,
        procs=args.procs, requests=args.requests,
        target_rps=args.target_rps, adv_fraction=args.adv_fraction,
        verbose=True)
    if report is None:        # deployment mode ended by Ctrl-C
        return 0
    load = report.load
    print(f"drove {len(load.outcomes)} requests against "
          f"http://{report.host}:{report.port} "
          f"({report.procs} worker{'s' if report.procs != 1 else ''})")
    print(f"  completed {load.completed}  rate/capacity 429s "
          f"{load.rejected_429}  transport errors {load.transport_errors}")
    print(f"  throughput {load.throughput_eps:8.1f} examples/s   "
          f"latency p50 {load.latency_percentile(50) * 1e3:.2f}ms  "
          f"p95 {load.latency_percentile(95) * 1e3:.2f}ms")
    print(f"  gate: detection {report.detection_rate:.2%}  "
          f"false positives {report.false_positive_rate:.2%}")
    if report.metrics_missing is not None:
        if report.metrics_missing:
            print("FAIL: /v1/metrics scrape is missing required series: "
                  + ", ".join(report.metrics_missing))
            return 1
        print("  /v1/metrics: all required series present")
    accounted = load.completed + load.rejected_429
    if load.transport_errors or accounted != len(load.outcomes):
        # The smoke contract: every request answered, none dropped, the
        # only allowed rejection is explicit backpressure.
        print(f"FAIL: {load.transport_errors} transport errors, "
              f"{len(load.outcomes) - accounted} non-200/429 responses "
              f"(status counts: {load.summary()['status_counts']})")
        return 1
    print("clean shutdown")
    return 0


def _run_harden_command(args) -> int:
    # Deferred: the loop pulls in the trainer/attack/serve stack.
    import os

    from .harden import CanaryPolicy, run_harden

    policy = CanaryPolicy(
        max_fpr_regression=args.max_fpr_regression,
        max_robust_regression=args.max_robust_regression)
    report = run_harden(
        model=args.model, dataset=args.dataset, preset=args.preset,
        seed=args.seed, cycles=args.cycles, workdir=args.harden_dir,
        backend=args.backend, gate=args.gate, requests=args.requests,
        adv_fraction=args.adv_fraction, max_batch=args.max_batch,
        deadline_ms=args.deadline_ms, base_epochs=args.epochs,
        finetune_epochs=args.finetune_epochs,
        disc_passes=args.disc_passes, workers=args.workers,
        policy=policy, verbose=True)
    failed = False
    for c in report.cycles:
        base, cand = c.canary.baseline, c.canary.candidate
        print(f"cycle {c.index}: flagged {c.flagged}, "
              f"quarantined {c.quarantined}, verdict {c.verdict}"
              + (f" ({'; '.join(c.canary.reasons)})"
                 if c.canary.reasons else ""))
        print(f"  detection {base.detection_rate:.2%} -> "
              f"{cand.detection_rate:.2%}   "
              f"false positives {base.false_positive_rate:.2%} -> "
              f"{cand.false_positive_rate:.2%}")
        print(f"  clean {base.clean_accuracy:.2%} -> "
              f"{cand.clean_accuracy:.2%}   "
              f"robust {base.robust_accuracy:.2%} -> "
              f"{cand.robust_accuracy:.2%}")
        # The smoke contract: every cycle must stage a real candidate
        # and reach an explicit verdict — anything else is a broken loop.
        if not (c.finetune and os.path.exists(c.finetune.candidate_path)):
            print(f"FAIL: cycle {c.index} produced no candidate archive")
            failed = True
        if c.verdict not in ("promote", "reject"):
            print(f"FAIL: cycle {c.index} reached no explicit verdict "
                  f"({c.verdict!r})")
            failed = True
    print(f"{report.promotions} of {len(report.cycles)} candidate(s) "
          f"promoted; serving fingerprint "
          f"{report.cycles[-1].fingerprint[:16]}")
    return 1 if failed or len(report.cycles) != args.cycles else 0


def _dispatch(key, args, experiment) -> int:
    if key == "table3":
        results = experiment.runner(args.dataset, preset=args.preset,
                                    seed=args.seed, verbose=True,
                                    cache_dir=args.cache_dir,
                                    backend=args.backend,
                                    workers=args.workers or 1)
        print(render_table3(results))
    elif key == "table4":
        result = experiment.runner(args.dataset, preset=args.preset,
                                   seed=args.seed, verbose=True,
                                   cache_dir=args.cache_dir,
                                   backend=args.backend,
                                   workers=args.workers or 1)
        for kind, value in result.accuracy.items():
            print(f"  {kind:10s} {value * 100:6.2f}%")
    elif key == "eval-suite":
        attack_names = [a for a in args.attacks.split(",") if a]
        try:
            suite_result = experiment.runner(
                args.dataset, preset=args.preset, defense=args.defense,
                attack_names=attack_names, seed=args.seed,
                cache_dir=args.cache_dir,
                early_stop=not args.no_early_stop, verbose=True,
                backend=args.backend, workers=args.workers or 1)
        except KeyError as error:
            print(error)
            return 2
        from .experiments.eval_suite import suite_to_evaluation_result
        print(format_accuracy_table(
            [suite_to_evaluation_result(suite_result)],
            ["original"] + [r.attack for r in suite_result.records]))
        print(f"  generation: {suite_result.generation_seconds:.2f}s "
              f"({sum(r.from_cache for r in suite_result.records)} of "
              f"{len(suite_result.records)} attacks from cache)")
    elif key == "train":
        result = experiment.runner(
            args.dataset, preset=args.preset, defense=args.defense,
            seed=args.seed, epochs=args.epochs,
            checkpoint_dir=args.checkpoint_dir, resume=args.resume,
            probe_every=args.probe_every, cache_dir=args.cache_dir,
            verbose=True, backend=args.backend, workers=args.workers)
        h = result.history
        status = f"diverged ({h.stop_reason})" if h.stop_reason \
            else "completed"
        print(f"{result.defense} on {result.dataset}: "
              f"{result.completed_epochs} epochs {status}"
              + (f" (resumed from {result.resumed_from})"
                 if result.resumed else ""))
        if h.losses:
            print(f"  final loss {h.losses[-1]:.4f}  "
                  f"mean epoch {h.mean_epoch_seconds:.2f}s")
        if result.probes:
            last = result.probes[-1]
            robust = "  ".join(
                f"{r.attack}={r.accuracy * 100:.1f}%"
                for r in last["result"].records)
            print(f"  probe @ epoch {last['epoch'] + 1}: "
                  f"clean={last['result'].clean_accuracy * 100:.1f}%  "
                  f"{robust}")
        if result.checkpoint_path:
            print(f"  checkpoint: {result.checkpoint_path}")
        if result.metrics_path:
            print(f"  metrics:    {result.metrics_path}")
    elif key == "figure5-time":
        timings = experiment.runner(args.dataset, preset=args.preset,
                                    seed=args.seed,
                                    checkpoint_dir=args.checkpoint_dir,
                                    resume=args.resume,
                                    probe_every=args.probe_every or 0,
                                    workers=args.workers or 1)
        for name, seconds in timings.items():
            print(f"  {name:14s} {seconds:8.3f} s/epoch")
    elif key == "figure5-convergence":
        curves = experiment.runner("objects", preset=args.preset,
                                   seed=args.seed,
                                   run_dir=args.checkpoint_dir,
                                   resume=args.resume)
        print(format_series(
            "CLS training loss per epoch",
            {c.label: c.losses for c in curves}))
        for c in curves:
            print(f"  {c.label:26s} "
                  f"{'converges' if c.converged() else 'stalls'}")
    elif key == "ablation-gamma":
        results = experiment.runner(args.dataset, preset=args.preset,
                                    seed=args.seed)
        print(format_accuracy_table(results, EXAMPLE_TYPES))
    else:  # pragma: no cover - registry and dispatch kept in sync
        print(f"no CLI renderer for {key}")
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
