"""The one-BLAS-thread-per-process budget (``repro.utils.threads``).

Each check runs in a fresh interpreter: the pin happens once per
process, when its first backend is built, and OpenBLAS reads the thread
variables only when it loads.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.utils import threads

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..",
                                   "src"))

#: Run as a script so the spawn pool's workers can import ``task``.
PROBE = '''
import json

import repro.backend as backend
from repro.utils import threads
from repro.utils.pool import SpawnPool


def task(_):
    return threads.blas_threads()


if __name__ == "__main__":
    before = threads.blas_threads()
    backend.active()
    parent = threads.blas_threads()
    with SpawnPool(1) as pool:
        (worker,) = pool.imap(task, [0])
    print(json.dumps({"before": before, "parent": parent,
                      "worker": worker}))
'''


def probe(tmp_path, **env_overrides):
    script = tmp_path / "probe.py"
    script.write_text(PROBE)
    env = {k: v for k, v in os.environ.items()
           if k not in threads.THREAD_ENV_VARS}
    env["PYTHONPATH"] = SRC
    env.update(env_overrides)
    out = subprocess.run([sys.executable, str(script)], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


needs_blas_entry = pytest.mark.skipif(
    threads.blas_threads() is None,
    reason="this numpy's BLAS exposes no thread-count entry")


def test_usable_cpus_is_positive():
    assert threads.usable_cpus() >= 1


@needs_blas_entry
def test_first_backend_pins_parent_and_pool_workers(tmp_path):
    got = probe(tmp_path)
    assert got["parent"] == got["worker"] == 1


@needs_blas_entry
def test_thread_variable_is_left_alone(tmp_path):
    got = probe(tmp_path, OPENBLAS_NUM_THREADS="2")
    if threads.usable_cpus() >= 2:     # OpenBLAS caps it at the CPUs
        assert got["before"] == 2
    assert got["parent"] == got["worker"] == got["before"]


def test_pin_without_blas_entry_is_a_no_op(monkeypatch):
    monkeypatch.setattr(threads, "_entry_points", lambda: None)
    assert threads.blas_threads() is None
    assert threads.pin_blas_threads() is None
