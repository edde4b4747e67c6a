"""Checkout paths, the per-run work directory, provenance and statistics.

Everything a run writes lives under ``.perfbench/`` in the checkout: the
run directory (checkpoints, quarantine stores, server logs, temp files)
is deleted when the run ends; traced runs keep their span dump under
``.perfbench/traces/``.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Every workload runs on the CPU performance path; ``numpy`` stays the
#: bit-exact reference the tests compare against.
BACKEND = "fast"

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: BLAS / OpenMP thread variables recorded as found.  The benchmark never
#: sets them: thread settings change results as well as speed.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "GOTO_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "OMP_THREAD_LIMIT", "OMP_DYNAMIC", "OMP_PROC_BIND",
               "OMP_PLACES", "MKL_DYNAMIC")

clock = time.perf_counter


def sources_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


class RunDir:
    """A fresh directory for one run's files, removed by :meth:`close`.

    Temp files (the sharded engine's model depot, server scratch) are
    pointed here too, so a run writes nothing outside the checkout.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.path = WORK / f"run-{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        tmp = self.path / "tmp"
        tmp.mkdir(parents=True)
        tempfile.tempdir = str(tmp)
        os.environ["TMPDIR"] = str(tmp)

    def sub(self, name: str) -> Path:
        """A fresh, empty subdirectory."""
        path = self.path / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


# --------------------------------------------------------------------- #
# results
# --------------------------------------------------------------------- #
@dataclass
class Outcome:
    """What one workload run produced, before formatting."""

    attempted: int = 0
    failed: int = 0
    checks: List[str] = field(default_factory=list)   # failed checks
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.checks.append(message)
        return ok

    @property
    def correct(self) -> bool:
        return not self.checks and self.failed == 0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (the smallest sample with at least ``q``
    percent of the samples at or below it)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def timed_setups(build, teardown) -> tuple:
    """Run ``build(i)`` :data:`SETUP_REPEATS` times, tearing down all but
    the last; returns ``(last state, median seconds)``."""
    seconds = []
    state = None
    for i in range(SETUP_REPEATS):
        if state is not None:
            teardown(state)
        start = clock()
        state = build(i)
        seconds.append(clock() - start)
    return state, median(seconds)


# --------------------------------------------------------------------- #
# memory
# --------------------------------------------------------------------- #
def _vm_hwm_kb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def peak_rss_mb(child_pids: Iterable[int] = ()) -> float:
    """This process's peak resident memory plus each live child's."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own_kb + sum(_vm_hwm_kb(pid) for pid in child_pids)) / 1024.0


# --------------------------------------------------------------------- #
# provenance
# --------------------------------------------------------------------- #
def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip()


def _source_digest() -> str:
    """SHA-256 over every file under ``src/`` — identifies the code when
    the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas() -> Dict[str, str]:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except (TypeError, ValueError):
        return {"name": "unknown", "version": "unknown"}
    blas = deps.get("blas", {})
    return {"name": str(blas.get("name", "unknown")),
            "version": str(blas.get("version", "unknown")),
            "config": str(blas.get("openblas configuration", ""))}


def provenance(workload: str, seed: int) -> Dict[str, object]:
    import numpy as np

    found = {name: os.environ.get(name, "unset") for name in THREAD_VARS}
    found.update({name: value for name, value in os.environ.items()
                  if name.endswith("_NUM_THREADS") and name not in found})
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "thread_env": found,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "backend": BACKEND,
        "workload": workload,
        "seed": seed,
    }


def weight_digest(modules: Dict[str, object]) -> str:
    """SHA-256 over named modules' parameters, in name order."""
    digest = hashlib.sha256()
    for name in sorted(modules):
        for key, value in sorted(modules[name].state_dict().items()):
            digest.update(f"{name}.{key}".encode())
            digest.update(value.tobytes())
    return digest.hexdigest()


def worker_pids() -> List[int]:
    """Pids of this process's live ``multiprocessing`` children (the
    spawn pool's workers)."""
    import multiprocessing

    return [proc.pid for proc in multiprocessing.active_children()
            if proc.pid is not None]


# --------------------------------------------------------------------- #
# process hygiene
# --------------------------------------------------------------------- #
def _child_pids() -> List[int]:
    """Pids of this process's direct children, ended or not, that have
    not been waited for."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The fields after the parenthesised command: state, ppid, ...
        if int(stat[stat.rfind(")") + 2:].split()[1]) == me:
            pids.append(int(entry))
    return pids


def _reap(pid: int, timeout: float) -> bool:
    """Wait up to ``timeout`` seconds for child ``pid`` to end."""
    deadline = clock() + timeout
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True
        if done or clock() >= deadline:
            return bool(done)
        time.sleep(0.02)


def stop_children(grace: float = 10.0) -> None:
    """Stop every process this run started and wait for each to end.

    The workloads stop their pool and server themselves; this is the net
    under every way out of a run.  It also stops ``multiprocessing``'s
    resource tracker, a child the spawn pool starts that would otherwise
    outlive the run until it noticed the exit.  Whatever else is left
    gets SIGTERM, then SIGKILL after ``grace`` seconds.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join()
    resource_tracker._resource_tracker._stop()
    for pid in _child_pids():
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
            if _reap(pid, grace):
                break
