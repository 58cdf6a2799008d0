"""Shard dispatch and cell execution for ``repro.sweep``.

* :mod:`repro.sweep.executors.supervised` — :class:`SupervisedChildExecutor`
  turns a sweep's deterministic ``--shard i/n`` slices into supervised
  ``python -m repro sweep`` children on this machine and collects their
  artifact directories for the merge path (``--executor subprocess``;
  EXPERIMENTS.md, "Dispatched sweeps");
* :mod:`repro.sweep.executors.local` — the process-pool cell engine every
  sweep process (a shard child included) runs its cells on.
"""

from repro.sweep.executors.supervised import (
    ShardHandle,
    ShardSpec,
    SupervisedChildExecutor,
)

__all__ = [
    "ShardHandle",
    "ShardSpec",
    "SupervisedChildExecutor",
]
