"""Fault-tolerant parallel Monte-Carlo sweep engine with result caching.

``python -m repro sweep <experiment> --seeds N --jobs J`` fans any
registered experiment across a process pool — seeds derived
deterministically from a root seed, finished runs cached on disk under
``.repro-cache/``, failed or timed-out runs retried with exponential
backoff and worker crashes survived, per-sweep JSON/CSV artifacts plus
mean/median/CI aggregates emitted per sweep.  ``--shard i/n`` runs one
deterministic slice of the run list; ``--executor subprocess`` runs
every shard as a supervised child process here and auto-merges them;
``python -m repro merge`` unions shard outputs back into one aggregate
identical to an unsharded run.  See the "Sweeps" sections of README.md and EXPERIMENTS.md.

The public surface is intentionally small: :func:`run_sweep` driven by
a :class:`SweepConfig` (``shards=N`` dispatches it as supervised shard
children), the :class:`SweepResult` it returns, and :func:`merge_sweeps`.
Everything else (grid expansion, the result cache, the cell engine,
shard dispatch, artifact writers) is an implementation detail —
reachable under its submodule for tests and power users, but not part
of the supported API.  Each name is imported from its submodule on first
access, so a sweep does not load the merge code it never runs.
"""

from repro._surface import lazy_exports as _lazy_exports

__all__ = [
    "SweepConfig",
    "SweepResult",
    "merge_sweeps",
    "run_sweep",
]

_lazy_exports(globals(), {
    "merge": ("merge_sweeps",),
    "runner": ("SweepConfig", "SweepResult", "run_sweep"),
})
