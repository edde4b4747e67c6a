"""Smoke test of the benchmark: every workload at a tiny size.

    python3 perfbench/smoke.py

For each workload, an untraced and a traced ``--tiny`` run must exit 0
and end with a result whose metrics are exactly the ``BENCHMARK.json``
metrics of its mode, in order, with their units, leaving no process of
its session behind; every per-layer metric
but the counters in :data:`MAY_BE_ZERO` must read non-zero on at least
one workload.  Last, the benchmark must
refuse — non-zero exit, no result — in a copy holding only
``BENCHMARK.json`` and ``perfbench/``.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train", "attack", "serve")
#: Counters of events a healthy run does not have.
MAY_BE_ZERO = {"serve.rejected", "serve.quarantine_duplicates"}


def _session_pids(sid: int) -> list:
    """Pids of the processes in session ``sid``, ended ones included."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The fields after the parenthesised command: state, ppid, pgrp,
        # session, ...
        if int(stat[stat.rfind(")") + 2:].split()[3]) == sid:
            pids.append(int(entry))
    return pids


def _run(cwd: Path, workload: str, trace: int, tiny: bool = True):
    """Run the benchmark in a session of its own; ``proc.leftover`` lists
    the processes of that session still there once it has exited."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "2", "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    with subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as popen:
        try:
            stdout, stderr = popen.communicate(timeout=300)
        except subprocess.TimeoutExpired:
            os.killpg(popen.pid, signal.SIGKILL)
            raise
    proc = subprocess.CompletedProcess(cmd, popen.returncode, stdout, stderr)
    proc.leftover = _session_pids(popen.pid)
    return proc


def _result(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    nonzero = set()
    for workload in WORKLOADS:
        for trace, block in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, workload, trace)
            result = _result(proc)
            label = f"{workload} --trace {trace}"
            want = [(m["name"], m["unit"]) for m in spec[block]]
            if proc.returncode != 0 or result is None:
                failures.append(f"{label}: exit {proc.returncode}\n"
                                f"{proc.stdout[-1500:]}{proc.stderr[-1500:]}")
                continue
            got = [(name, m["unit"]) for name, m in result["metrics"].items()]
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"] or got != want:
                failures.append(f"{label}: result keys or metrics differ "
                                "from BENCHMARK.json")
            if not result["correct"]:
                failures.append(f"{label}: correctness checks failed")
            if proc.leftover:
                failures.append(f"{label}: processes left behind: "
                                f"{proc.leftover}")
            nonzero.update(name for name, m in result["metrics"].items()
                           if m["value"] != 0)
            print(f"ok   {label}: {len(got)} metrics", flush=True)
    silent = [m["name"] for m in spec["per_layer"]
              if m["name"] not in nonzero | MAY_BE_ZERO]
    if silent:
        failures.append(f"per-layer metrics zero on every workload: {silent}")

    stripped = ROOT / ".perfbench" / "smoke-stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    stripped.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", stripped)
        shutil.copytree(ROOT / "perfbench", stripped / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(stripped, "train", 0, tiny=False)
        if proc.returncode == 0 or _result(proc) is not None:
            failures.append("a copy without src/ did not refuse to run")
        else:
            print("ok   refuses to run without the program sources")
    finally:
        shutil.rmtree(stripped, ignore_errors=True)

    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
