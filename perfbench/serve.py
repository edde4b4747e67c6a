"""``serve``: ``repro serve-http`` in its own process under HTTP load.

Set-up trains an ``objects`` ZK-GanDef (FAST geometry, one epoch on
:data:`FIXTURE_TRAIN` examples, from :data:`FIXTURE_SEED`, so the gate's
flag rate — and with it the quarantine's write load — does not swing
with the workload seed, which drives the traffic), saves its
checkpoint, crafts a PGD pool
at the Sec. IV-C objects budget (eps 0.06, 20 x 0.016) and starts the
server on it: gate ``auto`` (the discriminator), the default in-memory
prediction cache, ``--max-batch 32 --deadline-ms 5``, one API key and
``--quarantine-dir`` on a fresh directory.  A few single-row warm-up
requests follow.

The timed region drives :class:`~perfbench.loadgen.LoadGenerator`:

* phase A, open loop at :data:`RATE` req/s for :data:`OPEN_SHARE` of
  ``--seconds``, each request timed from its due time: ``p50_ms``, with
  the tail as ``serve.open_p95_ms`` / ``serve.open_p99_ms``;
* phase B, closed loop, both connections back to back for the rest:
  ``examples_per_s`` (examples answered per second of the phase); its
  p99 is compared with :data:`LIMIT_MS` and reported as
  ``serve.closed_p99_ms``.

Checks: no transport errors and no 5xx; fresh rows sent one at a time
after the load come back with logits bitwise equal to a direct
single-row forward of the checkpoint.  The gate's detection and
false-positive rates are printed.
"""

from __future__ import annotations

import dataclasses
import json
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro import backend, nn
from repro.experiments.config import get_config
from repro.experiments.runners import build_trainer, load_config_split
from repro.serve.loadgen import craft_adversarial_pool
from repro.serve.registry import ModelRegistry
from repro.train import save_checkpoint

from .common import BACKEND, ROOT, Outcome, clock, percentile
from .harness import Timed
from .loadgen import LoadGenerator, Traffic
from .report import durations_ms, tail_pair
from .tracing import ATTRS, END, NAME, PARENT, PHASE, START

RATE = 20.0             # phase A requests per second
OPEN_SHARE = 2 / 3      # of --seconds spent in phase A
REPLAY_SHARE = 0.25     # requests that replay an earlier one exactly
ADV_SHARE = 0.5         # fresh requests drawn from the PGD pool
MAX_SIZE = 4            # examples per request: uniform in 1..MAX_SIZE
JITTER = 0.01           # uniform noise making pool images fresh
LIMIT_MS = 100.0        # phase B p99 latency limit
POOL = 64               # clean pool images (and their PGD twins)
WARMUP = 4              # single-row warm-up requests after start
PROBES = 4              # single-row bitwise probes after the load
FIXTURE_TRAIN = 256
FIXTURE_EPOCHS = 1
FIXTURE_SEED = 1

LAUNCHER = Path(__file__).with_name("serve_launcher.py")


class _ServerProcess:
    """``serve_launcher.py`` running the CLI; stopped with SIGINT."""

    def __init__(self, args: list, log: Path, spans) -> None:
        self.log = log
        self.spans = spans
        cmd = [sys.executable, "-u", str(LAUNCHER)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        with open(log, "wb") as handle:
            self.proc = subprocess.Popen(cmd + ["--"] + args, cwd=ROOT,
                                         stdout=handle,
                                         stderr=subprocess.STDOUT)
        try:
            self.host, self.port = self._address()
        except BaseException:
            self.stop()
            raise

    def _address(self, timeout: float = 120.0) -> tuple:
        deadline = clock() + timeout
        while clock() < deadline:
            text = self.log.read_text(errors="replace")
            found = re.search(r"serving .* on http://([\d.]+):(\d+)", text)
            if found:
                return found.group(1), int(found.group(2))
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}"
                                   f":\n{text[-2000:]}")
            time.sleep(0.05)
        raise RuntimeError(f"server did not start within {timeout:.0f}s")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class ServeWorkload:
    budgets: dict = {}

    def __init__(self, seed: int, tiny: bool, run) -> None:
        self.seed = seed
        self.run = run
        self.tracer = None
        cfg = get_config("fast").dataset("objects")
        self.cfg = dataclasses.replace(
            cfg, train_size=64 if tiny else FIXTURE_TRAIN,
            test_size=POOL + WARMUP + PROBES)
        self.pgd = cfg.budget.build(fast=False, seed=FIXTURE_SEED)["pgd"]
        self.api_key = f"perfbench-key-{seed}"
        self._starts = 0
        backend.use(BACKEND)

    # -- set-up -------------------------------------------------------- #
    def setup(self, index: int) -> dict:
        split = load_config_split(self.cfg, seed=FIXTURE_SEED)
        trainer = build_trainer("zk-gandef", self.cfg, seed=FIXTURE_SEED)
        trainer.epochs = FIXTURE_EPOCHS
        trainer.fit(split.train)
        workdir = self.run.sub(f"serve-{index}")
        ckpt = workdir / "checkpoint.npz"
        save_checkpoint(trainer, ckpt)
        images, labels = split.test.images, split.test.labels
        clean = images[:POOL]
        state = {"ckpt": ckpt, "workdir": workdir, "clean": clean,
                 "adv": craft_adversarial_pool(trainer.model, clean,
                                               labels[:POOL], self.pgd),
                 "fresh": images[POOL:], "window": (0.0, 0.0)}
        state["server"] = self._start(state, traced=False)
        return state

    def _start(self, state: dict, traced: bool) -> _ServerProcess:
        self._starts += 1
        n = self._starts
        args = ["serve-http", "--model", str(state["ckpt"]),
                "--dataset", "objects", "--backend", BACKEND,
                "--seed", str(FIXTURE_SEED), "--gate", "auto",
                "--max-batch", "32", "--deadline-ms", "5",
                "--api-keys", f"perfbench:{self.api_key}",
                "--quarantine-dir", str(self.run.sub(f"quarantine-{n}")),
                "--requests", "0"]
        spans = state["workdir"] / f"spans-{n}.json" if traced else None
        server = _ServerProcess(args, state["workdir"] / f"server-{n}.log",
                                spans)
        try:
            gen = LoadGenerator(server.host, server.port, self.api_key)
            for k in range(WARMUP):
                gen.single(state["fresh"][k:k + 1], f"w{k}")
        except BaseException:
            server.stop()
            raise
        return server

    def teardown(self, state: dict) -> None:
        state["server"].stop()
        self._adopt_server_spans(state)

    def child_pids(self, state: dict) -> list:
        return [state["server"].proc.pid]

    def retrace(self, state: dict) -> None:
        """Restart the server under wrappers that record its spans."""
        state["server"].stop()
        state["server"] = self._start(state, traced=True)

    def _adopt_server_spans(self, state: dict) -> None:
        path = state["server"].spans
        if self.tracer is None or path is None or not path.exists():
            return
        shipped = json.loads(path.read_text())
        low, high = state["window"]
        for spans in shipped["threads"]:
            for span in spans:
                span[PHASE] = "timed" if low <= span[START] <= high \
                    else "setup"
        rec = self.tracer.rec
        rec.adopt({"threads": shipped["threads"], "counters": {}})
        for name, value in shipped["counters"].items():
            rec.count(name, value, "timed")

    # -- the timed region ---------------------------------------------- #
    def run_timed(self, state: dict, seconds: float) -> Timed:
        server = state["server"]
        gen = LoadGenerator(server.host, server.port, self.api_key)
        traffic = Traffic(state["clean"], state["adv"], self.seed,
                          REPLAY_SHARE, ADV_SHARE, MAX_SIZE, JITTER)
        count = max(1, int(RATE * seconds * OPEN_SHARE))
        start = clock()
        opened = gen.run(traffic, 0, count=count, rate=RATE)
        closed = gen.run(traffic, count, seconds=seconds * (1 - OPEN_SHARE))
        state["window"] = (start, clock())
        everything = opened + closed
        wall = max(s.done for s in closed) - min(s.due for s in closed)
        return Timed(
            examples_per_s=sum(s.size for s in closed if s.status == 200)
            / wall,
            latencies_ms=[s.latency_ms for s in opened if s.status == 200],
            attempted=len(everything),
            failed=sum(1 for s in everything if s.status != 200),
            details={"open": opened, "closed": closed})

    # -- correctness ---------------------------------------------------- #
    def check(self, state: dict, timed: Timed) -> Outcome:
        out = Outcome(attempted=timed.attempted, failed=timed.failed)
        sent = timed.details["open"] + timed.details["closed"]
        errors = sum(1 for s in sent if s.status == 0 or s.status >= 500)
        out.check(errors == 0, f"{errors} transport errors or 5xx replies")
        server = state["server"]
        gen = LoadGenerator(server.host, server.port, self.api_key)
        entry = ModelRegistry().load("model", state["ckpt"],
                                     dataset="objects", preset="fast",
                                     seed=FIXTURE_SEED, backend=BACKEND)
        mismatched = history_dependent = 0
        for k in range(PROBES):
            row = state["fresh"][WARMUP + k:WARMUP + k + 1]
            reply = gen.single(row, f"p{k}")
            out.attempted += 1
            # The fast backend verifies its einsum shortcuts on a shape's
            # second sighting and trusts them from the third, and the
            # trusted path's logits differ in the last bits.  A busy
            # server is past that point, so the served row must match
            # the direct forward on either path, not necessarily the
            # first call's.
            with backend.use(entry.backend), \
                    nn.inference_mode(entry.model), nn.no_grad():
                direct = [backend.active().to_numpy(
                    entry.model(nn.Tensor(row)).data)[0] for _ in range(3)]
            history_dependent += not np.array_equal(direct[0], direct[-1])
            same = reply.status == 200 and any(np.array_equal(
                np.asarray(reply.logits[0], dtype=np.float32), d)
                for d in direct)
            mismatched += not same
        out.failed += mismatched
        out.check(mismatched == 0,
                  f"{mismatched} of {PROBES} probe rows differ from a "
                  "direct forward of the checkpoint")
        out.notes["probe rows whose direct forward changed between the "
                  "first and third call"] = history_dependent
        flagged = {True: [0, 0], False: [0, 0]}
        for s in sent:
            if s.status == 200 and not s.replay:
                flagged[s.adversarial][0] += sum(s.flagged)
                flagged[s.adversarial][1] += len(s.flagged)
        out.notes["gate detection rate"] = \
            flagged[True][0] / max(1, flagged[True][1])
        out.notes["gate false-positive rate"] = \
            flagged[False][0] / max(1, flagged[False][1])
        closed_p99 = percentile(
            [s.latency_ms for s in timed.details["closed"]
             if s.status == 200], 99)
        out.notes["phase B p99 (ms)"] = round(closed_p99, 3)
        out.notes[f"phase B meets the {LIMIT_MS:.0f} ms limit"] = \
            closed_p99 <= LIMIT_MS
        out.notes["requests (open, closed)"] = (
            len(timed.details["open"]), len(timed.details["closed"]))
        return out

    # -- per-layer ------------------------------------------------------ #
    def layer_metrics(self, state: dict, timed: Timed) -> dict:
        rec = self.tracer.rec
        threads = rec.threads()
        opened, closed = timed.details["open"], timed.details["closed"]
        handle_ms = {}
        batches = []
        forward_ms = []
        for spans in threads:
            for span in spans:
                if span[PHASE] != "timed" or not span[END]:
                    continue
                duration = (span[END] - span[START]) * 1e3
                if span[NAME] == "serve.handle":
                    handle_ms[span[ATTRS]["rid"]] = duration
                elif span[NAME] == "serve.batch":
                    batches.append(span[ATTRS])
                elif span[NAME].startswith("nn:") and span[PARENT] >= 0 \
                        and spans[span[PARENT]][NAME] == "serve.batch":
                    forward_ms.append(duration)
        served = [s for s in opened + closed if s.status == 200]
        transport = [(s.done - s.sent) * 1e3 - handle_ms[s.rid]
                     for s in served if s.rid in handle_ms]
        rows = [hit for s in served for hit in s.from_cache]
        m = {
            "serve.requests": len(served),
            "serve.batches": len(batches),
            "serve.batch_size_mean":
                sum(b["size"] for b in batches) / max(1, len(batches)),
            "serve.cache_hit_ratio": sum(rows) / max(1, len(rows)),
            "serve.quarantine_stored": rec.counter("serve.quarantine_stored"),
            "serve.quarantine_duplicates":
                rec.counter("serve.quarantine_duplicates"),
            "serve.rejected": sum(1 for s in opened + closed
                                  if s.status != 200),
            "serve.closed_p99_ms": percentile(
                [s.latency_ms for s in closed if s.status == 200], 99),
            "serve.open_p95_ms": percentile(timed.latencies_ms, 95),
            "serve.open_p99_ms": percentile(timed.latencies_ms, 99),
        }
        m.update(tail_pair(list(handle_ms.values()), "serve.handle"))
        m.update(tail_pair(transport, "serve.transport"))
        m.update(tail_pair([w * 1e3 for b in batches for w in b["waits"]],
                           "serve.queue_wait"))
        m.update(tail_pair(forward_ms, "serve.forward"))
        for name in ("gate", "cache_lookup", "cache_store", "quarantine"):
            m.update(tail_pair(durations_ms(threads, f"serve.{name}"),
                               f"serve.{name}"))
        m.update(tail_pair([(s.sent - s.due) * 1e3 for s in opened],
                           "serve.gen_late"))
        return m
