"""The repository benchmark: ``train``, ``attack`` and ``serve`` workloads.

Run one workload with::

    python3 perfbench/run.py --workload train --seed 0 --seconds 10 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the
traced mode.
"""
