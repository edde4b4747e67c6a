"""``repro serve-http`` — stand up the HTTP serving tier and run it.

Two modes behind one entry point:

* ``requests == 0`` — serve until interrupted (the deployment mode);
* ``requests > 0`` — self-test: start the server, drive a seeded
  clean+PGD request stream through real sockets with the closed-loop
  HTTP load generator, print the measured shape (throughput, p50/p95,
  per-status counts, gate split), shut down cleanly, and return the
  report.  CI's serve-http smoke runs exactly this.

``procs > 1`` is the multi-worker deployment story: N **processes**
each load the model, bind the same ``(host, port)`` under
``SO_REUSEPORT`` (the kernel spreads connections across them), and
share one on-disk :class:`DiskPredictionCache` directory (atomic
entries + journaled recency, the ``eval.cache`` technique) so any
worker replays examples first served by any other.  Platforms without
``SO_REUSEPORT`` get a loud error; run one process per port behind a
TCP load balancer there instead.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from .. import backend as _backend
from .cache import DiskPredictionCache, PredictionCache
from .http import ApiKeyAuth, HttpFrontend, HttpServer, RateLimiter, \
    parse_api_keys
from .loadgen import HttpLoadReport, LoadRequest, build_mixed_load, \
    craft_adversarial_pool, run_http_load
from .quarantine import QuarantineStore
from .registry import ModelRegistry
from .run import _resolve_model
from .server import Server

__all__ = ["HttpServeReport", "run_serve_http", "REQUIRED_METRIC_SERIES"]

#: Series every healthy serving process must expose on ``/v1/metrics``
#: after handling traffic — the self-test (and CI's smoke) fails loudly
#: if any is missing from the scrape.
REQUIRED_METRIC_SERIES = (
    "repro_http_requests_total",
    "repro_http_served_requests_total",
    "repro_http_inflight_examples",
    "repro_serve_requests_total",
    "repro_serve_pending_examples",
    "repro_serve_batch_size",
    "repro_serve_request_latency_seconds",
    "repro_blas_threads",
    "repro_usable_cpus",
)


@dataclass
class HttpServeReport:
    """What one self-test ``serve-http`` run measured."""

    host: str
    port: int
    procs: int
    load: HttpLoadReport
    #: Flagged fraction of adversarial / clean examples among the 200s
    #: (the gate's detection and false-positive rates, measured through
    #: the full HTTP path by known traffic provenance).
    detection_rate: float
    false_positive_rate: float
    #: The ``/v1/stats`` payload fetched over HTTP at the end of the
    #: run (single-process mode; one worker's view under ``procs > 1``).
    stats: Optional[dict] = None
    #: Required series absent from the final ``/v1/metrics`` scrape
    #: (``None`` when no scrape ran; empty means all present).
    metrics_missing: Optional[List[str]] = None


def _build_cache(cache_dir: Optional[str], cache_entries: int):
    if cache_dir:
        return DiskPredictionCache(cache_dir)
    return PredictionCache(max_entries=cache_entries) \
        if cache_entries else None


def _build_frontend(server: Server, api_keys: Optional[Dict[str, str]],
                    rate: Optional[float], burst: Optional[float],
                    queue_limit: int,
                    max_request_examples: int) -> HttpFrontend:
    return HttpFrontend(
        server,
        auth=ApiKeyAuth(api_keys),
        limiter=RateLimiter(rate, burst=burst),
        queue_limit=queue_limit,
        max_request_examples=max_request_examples)


def _scrape_missing(probe) -> List[str]:
    """Scrape ``/v1/metrics`` through ``probe`` and return the required
    series the exposition text does not mention."""
    text = probe.metrics().payload.get("raw", "")
    return [series for series in REQUIRED_METRIC_SERIES
            if series not in text]


def _gate_split(report: HttpLoadReport,
                requests: List[LoadRequest]) -> tuple:
    """(detection rate, false-positive rate) from served rows by the
    load's known provenance."""
    flagged = {True: 0, False: 0}
    totals = {True: 0, False: 0}
    for outcome in report.outcomes:
        if outcome.status != 200 or outcome.predictions is None:
            continue
        adversarial = requests[outcome.index].adversarial
        totals[adversarial] += len(outcome.predictions)
        flagged[adversarial] += sum(
            1 for row in outcome.predictions if row["flagged"])
    detection = flagged[True] / totals[True] if totals[True] else 0.0
    fpr = flagged[False] / totals[False] if totals[False] else 0.0
    return detection, fpr


def _build_traffic(entry, split, cfg, config, seed: int, requests: int,
                   adv_fraction: float, max_request_size: int,
                   verbose: bool) -> List[LoadRequest]:
    eval_images = split.test.images[:cfg.eval_size]
    eval_labels = split.test.labels[:cfg.eval_size]
    if adv_fraction > 0:
        attack = cfg.budget.build(fast=config.fast, seed=seed)["pgd"]
        if verbose:
            print(f"crafting PGD pool ({len(eval_images)} examples, "
                  f"eps={attack.eps}) ...")
        with _backend.use(entry.backend):
            adv_pool = craft_adversarial_pool(
                entry.model, eval_images, eval_labels, attack)
    else:
        adv_pool = eval_images      # unused at adv_fraction == 0
    return build_mixed_load(eval_images, adv_pool, num_requests=requests,
                            max_request_size=max_request_size,
                            adv_fraction=adv_fraction, seed=seed)


def run_serve_http(
    model: str = "gandef",
    dataset: str = "digits",
    preset: str = "fast",
    seed: int = 0,
    backend: Optional[str] = None,
    max_batch: int = 32,
    deadline_ms: float = 5.0,
    gate: str = "auto",
    gate_threshold: Optional[float] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    api_keys: Optional[str] = None,
    rate: Optional[float] = None,
    burst: Optional[float] = None,
    queue_limit: int = 1024,
    cache_dir: Optional[str] = None,
    cache_entries: int = 4096,
    quarantine_dir: Optional[str] = None,
    procs: int = 1,
    requests: int = 0,
    target_rps: Optional[float] = None,
    adv_fraction: float = 0.5,
    max_request_size: int = 4,
    concurrency: int = 8,
    verbose: bool = False,
) -> Optional[HttpServeReport]:
    """Serve ``model`` over HTTP; optionally self-test with a seeded
    clean+PGD load (``requests > 0``) and return the measured report.

    ``api_keys`` is the CLI's ``client:key[,client:key...]`` string
    (``None`` disables auth — development only); ``rate`` is a
    per-client requests/second token-bucket rate (``burst`` caps the
    bucket); ``queue_limit`` bounds admitted-but-unanswered examples
    (beyond it: 429 + Retry-After).  ``cache_dir`` switches the
    prediction cache to the shared on-disk store every worker process
    can hit; ``quarantine_dir`` attaches a shared
    :class:`QuarantineStore` so gate-flagged examples are captured for
    the ``repro harden`` loop (off by default — serving is then
    bitwise-identical to a sink-less server).
    """
    if procs < 1:
        raise ValueError(f"procs must be >= 1, got {procs}")
    keys = parse_api_keys(api_keys) if api_keys else None
    if procs > 1:
        return _run_multiprocess(
            model=model, dataset=dataset, preset=preset, seed=seed,
            backend=backend, max_batch=max_batch, deadline_ms=deadline_ms,
            gate=gate, gate_threshold=gate_threshold, host=host, port=port,
            keys=keys, rate=rate, burst=burst, queue_limit=queue_limit,
            cache_dir=cache_dir, quarantine_dir=quarantine_dir,
            procs=procs, requests=requests,
            target_rps=target_rps, adv_fraction=adv_fraction,
            max_request_size=max_request_size, concurrency=concurrency,
            verbose=verbose)

    from ..experiments.config import get_config
    from ..experiments.runners import load_config_split

    registry = ModelRegistry()
    entry, split = _resolve_model(registry, model, dataset, preset, seed,
                                  backend, verbose)
    config = get_config(preset)
    cfg = config.dataset(dataset)
    if split is None:
        split = load_config_split(cfg, seed=seed)

    server = Server(registry, max_batch=max_batch,
                    deadline_ms=deadline_ms, gate=gate,
                    gate_threshold=gate_threshold,
                    cache=_build_cache(cache_dir, cache_entries),
                    flag_sink=QuarantineStore(quarantine_dir)
                    if quarantine_dir else None)
    frontend = _build_frontend(server, keys, rate, burst, queue_limit,
                               max_request_examples=max(
                                   max_batch, max_request_size))
    httpd = HttpServer(frontend, host=host, port=port, verbose=verbose)
    httpd.start()
    bound_host, bound_port = httpd.address
    if verbose:
        auth_note = f"{len(keys)} API key(s)" if keys else "auth OFF"
        print(f"serving {entry.name!r} on http://{bound_host}:{bound_port} "
              f"({auth_note}, rate="
              f"{rate if rate is not None else 'unlimited'}, "
              f"queue_limit={queue_limit})")
    try:
        if requests <= 0:
            while True:             # deployment mode: Ctrl-C to stop
                time.sleep(0.5)
        traffic = _build_traffic(entry, split, cfg, config, seed,
                                 requests, adv_fraction,
                                 max_request_size, verbose)
        api_key = next(iter(keys.values())) if keys else None
        report = run_http_load(bound_host, bound_port, traffic,
                               model=entry.name, target_rps=target_rps,
                               concurrency=concurrency, api_key=api_key)
        detection, fpr = _gate_split(report, traffic)
        from .http import HttpClient

        with HttpClient(bound_host, bound_port, api_key=api_key) as probe:
            stats = probe.stats().payload
            missing = _scrape_missing(probe)
        return HttpServeReport(host=bound_host, port=bound_port, procs=1,
                               load=report, detection_rate=detection,
                               false_positive_rate=fpr, stats=stats,
                               metrics_missing=missing)
    except KeyboardInterrupt:
        if verbose:
            print("interrupted; draining ...")
        return None
    finally:
        httpd.stop()


# --------------------------------------------------------------------- #
# multi-process deployment
# --------------------------------------------------------------------- #
def _http_worker(spec: dict, ready, stop) -> None:
    """One worker process: load the model, bind with SO_REUSEPORT,
    serve until the parent's stop event."""
    registry = ModelRegistry()
    entry, _ = _resolve_model(registry, spec["model"], spec["dataset"],
                              spec["preset"], spec["seed"],
                              spec["backend"], verbose=False)
    cache = DiskPredictionCache(**spec["cache_spec"]) \
        if spec.get("cache_spec") else None
    sink = QuarantineStore(spec["quarantine_dir"]) \
        if spec.get("quarantine_dir") else None
    server = Server(registry, max_batch=spec["max_batch"],
                    deadline_ms=spec["deadline_ms"], gate=spec["gate"],
                    gate_threshold=spec["gate_threshold"], cache=cache,
                    flag_sink=sink)
    frontend = _build_frontend(server, spec["keys"], spec["rate"],
                               spec["burst"], spec["queue_limit"],
                               spec["max_request_examples"])
    httpd = HttpServer(frontend, host=spec["host"], port=spec["port"],
                       reuse_port=True)
    httpd.start()
    ready.set()
    try:
        stop.wait()
    finally:
        httpd.stop()


def _run_multiprocess(*, model, dataset, preset, seed, backend, max_batch,
                      deadline_ms, gate, gate_threshold, host, port, keys,
                      rate, burst, queue_limit, cache_dir, quarantine_dir,
                      procs, requests, target_rps, adv_fraction,
                      max_request_size, concurrency,
                      verbose) -> Optional[HttpServeReport]:
    import multiprocessing as mp

    if port == 0:
        raise ValueError(
            "procs > 1 needs an explicit --port: every worker must bind "
            "the same address for SO_REUSEPORT to balance across them")
    import socket as _socket
    if not hasattr(_socket, "SO_REUSEPORT"):
        raise OSError(
            "SO_REUSEPORT is not available on this platform; run one "
            "serve-http process per port behind a TCP load balancer "
            "instead of --procs")
    spec = {
        "model": model, "dataset": dataset, "preset": preset, "seed": seed,
        "backend": backend, "max_batch": max_batch,
        "deadline_ms": deadline_ms, "gate": gate,
        "gate_threshold": gate_threshold, "host": host, "port": port,
        "keys": keys, "rate": rate, "burst": burst,
        "queue_limit": queue_limit,
        "max_request_examples": max(max_batch, max_request_size),
        "cache_spec": ({"root": os.fspath(cache_dir)}
                       if cache_dir else None),
        # Workers share one quarantine directory the same way they share
        # the disk cache — the store's lock/journal make that safe.
        "quarantine_dir": os.fspath(quarantine_dir)
        if quarantine_dir else None,
    }
    ctx = mp.get_context("spawn")
    ready = [ctx.Event() for _ in range(procs)]
    stop = ctx.Event()
    workers = [ctx.Process(target=_http_worker, args=(spec, ready[i], stop),
                           daemon=True, name=f"serve-http-{i}")
               for i in range(procs)]
    for worker in workers:
        worker.start()
    try:
        for i, event in enumerate(ready):
            if not event.wait(300.0):
                raise RuntimeError(
                    f"serve-http worker {i} did not come up within 300s")
        if verbose:
            print(f"{procs} workers sharing http://{host}:{port} "
                  f"(SO_REUSEPORT"
                  + (f", shared cache {cache_dir}" if cache_dir else "")
                  + ")")
        if requests <= 0:
            while True:
                time.sleep(0.5)
        # The parent resolves the model too — only to craft the same
        # seeded traffic the workers will serve (weights are identical:
        # same checkpoint, or same seeded on-the-fly training).
        from ..experiments.config import get_config
        from ..experiments.runners import load_config_split

        registry = ModelRegistry()
        entry, split = _resolve_model(registry, model, dataset, preset,
                                      seed, backend, verbose)
        config = get_config(preset)
        cfg = config.dataset(dataset)
        if split is None:
            split = load_config_split(cfg, seed=seed)
        traffic = _build_traffic(entry, split, cfg, config, seed,
                                 requests, adv_fraction,
                                 max_request_size, verbose)
        api_key = next(iter(keys.values())) if keys else None
        report = run_http_load(host, port, traffic, model=entry.name,
                               target_rps=target_rps,
                               concurrency=concurrency, api_key=api_key)
        detection, fpr = _gate_split(report, traffic)
        from .http import HttpClient

        # One worker's view — SO_REUSEPORT picks it; the required series
        # exist in every worker, so any worker satisfies the check.
        with HttpClient(host, port, api_key=api_key) as probe:
            missing = _scrape_missing(probe)
        return HttpServeReport(host=host, port=port, procs=procs,
                               load=report, detection_rate=detection,
                               false_positive_rate=fpr, stats=None,
                               metrics_missing=missing)
    except KeyboardInterrupt:
        if verbose:
            print("interrupted; stopping workers ...")
        return None
    finally:
        stop.set()
        for worker in workers:
            worker.join(timeout=30.0)
            if worker.is_alive():
                worker.terminate()
