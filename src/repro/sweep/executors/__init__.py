"""Pluggable shard-dispatch backends for ``repro.sweep``.

The :class:`~repro.sweep.executors.base.Executor` protocol turns a
sweep's deterministic ``--shard i/n`` slices into running shards and
collects their artifact directories for the merge path; see
``base.py`` for the contract and EXPERIMENTS.md ("Distributed sweeps")
for usage.  Two backends ship:

* :class:`LocalPoolExecutor` — shards run in this process on the
  classic pool (``--executor local``), the in-process reference;
* :class:`SupervisedChildExecutor` — shards are supervised child
  processes started through a :class:`CommandTransport`: local
  children (``--executor subprocess``), or ``ssh`` clients and ``scp``
  fetches across :class:`Host` entries (``--executor ssh``).
"""

from repro.sweep.executors.base import Executor, ShardHandle, ShardSpec
from repro.sweep.executors.local import LocalPoolExecutor
from repro.sweep.executors.ssh import (
    CommandTransport,
    Host,
    LocalCommandTransport,
    SSHCommandTransport,
    SupervisedChildExecutor,
    load_hostfile,
    parse_hosts,
)

__all__ = [
    "CommandTransport",
    "Executor",
    "Host",
    "LocalCommandTransport",
    "LocalPoolExecutor",
    "SSHCommandTransport",
    "ShardHandle",
    "ShardSpec",
    "SupervisedChildExecutor",
    "load_hostfile",
    "parse_hosts",
]
