"""The ledger's catalogue: workloads, layers and metrics, as plain data.

Nothing here imports ``repro`` or measures anything; ``run.py`` (the
parent), ``child.py`` (the measured interpreter) and ``test_ledger.py``
all read the same tables, and ``BENCHMARK.json`` at the repo root must
list exactly these names (the test checks it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

SCHEMA = "repro.ledger/v1"

# -- workloads ---------------------------------------------------------------

SIM_WORKLOADS = ("chi-droptail", "red-adversary", "pi2-abilene",
                 "fatih-abilene")

#: name -> one-line reason the workload exists (copied into BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    "chi-droptail":
        "TCP over a droptail bottleneck with chi watching: net.* is ~70% of "
        "self time, zero signatures; per-hop forwarding and heap work show "
        "here, Pi2-side changes must not",
    "red-adversary":
        "same net.* and core.chi layers used differently: RED queue, "
        "REDQueueValidator, a CombinedCompromise hook on every packet; the "
        "bypass for droptail-only forwarding or chi gains",
    "pi2-abilene":
        "Pi2 on Abilene, the slowest code per event: crypto.signatures + "
        "core.summaries + dist.consensus dominate, net.* under 25%",
    "fatih-abilene":
        "the whole system: link-state routing, Pik+2, detection, reroute; "
        "core.summaries in its Pik+2/dist.sync use, no per-segment consensus",
    "sweep-cold":
        "16 cheap runs, pooled then dispatched as 2 shards, no cache: pool "
        "start-up, pickling, cache stores, supervision and artefact writes "
        "are a visible share; simulator changes barely move it",
    "sweep-warm":
        "the same sweep against a full cache, as two shards plus a merge: "
        "cache load, merge validation and import time do all the work, the "
        "simulator none",
    "obs-forensics":
        "reads where the sim workloads write: JSONL parse, index build, "
        "indexed query, explain, summarize and diff over traced Pi2 sweeps",
}

# -- layers ------------------------------------------------------------------

#: layer -> path prefixes under ``repro/`` whose code belongs to it.  Code
#: outside ``repro`` (built-ins, stdlib, numpy) is folded into the layer of
#: its caller, so the heap is inside ``net.events`` and HMAC inside
#: ``crypto.signatures``.
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "net.events": ("net/events",),
    "net.router": ("net/router",),
    "net.queues": ("net/queues",),
    "net.tcp": ("net/tcp", "net/traffic"),
    "net.packet": ("net/packet",),
    "net.routing": ("net/routing", "net/topology"),
    "net.adversary": ("net/adversary",),
    "crypto.fingerprint": ("crypto/fingerprint",),
    "crypto.signatures": ("crypto/signatures", "crypto/keys",
                          "crypto/hashchain"),
    "core.summaries": ("core/summaries",),
    "core.validation": ("core/validation", "core/detector", "core/codecs"),
    "core.segments": ("core/segments",),
    "core.pi2": ("core/pi2",),
    "core.pik2": ("core/pik2",),
    "core.chi": ("core/chi", "core/qmodel", "core/static_threshold"),
    "core.fatih": ("core/fatih", "core/replica"),
    "dist.consensus": ("dist/consensus", "dist/broadcast"),
    "dist.sync": ("dist/sync",),
    "dist.reconcile": ("dist/reconcile",),
    "obs": ("obs/",),
    "eval": ("eval/",),
    "sweep": ("sweep/",),
}
OTHER = "other"
LAYERS = tuple(LAYER_MODULES) + (OTHER,)

# -- metrics -----------------------------------------------------------------


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: regression bound as a share of the parent's median (end-to-end only).
    bound: float = 0.0
    #: end-to-end metric -> workloads on which this metric should move it.
    moves: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: repeats exactly for a fixed seed, so two runs compare by equality.
    exact: bool = False


ALL = tuple(WORKLOADS)

END_TO_END = (
    Metric("wall_s", "s", "lower", bound=0.25),
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", bound=0.10),
)

#: Simulated detection quality and the failure share.  They are exact for a
#: fixed seed and often 0, which the driver's contract rules out for bounded
#: end-to-end metrics, so they travel with the per-layer metrics and are
#: gated by the correctness checks and by ``run.py compare`` (equality).
QUALITY = (
    Metric("fail_share", "share", "lower", exact=True,
           moves={"wall_s": ALL}),
    Metric("detect_latency_sim_s", "sim_s", "lower", exact=True,
           moves={"wall_s": SIM_WORKLOADS}),
    Metric("false_alarm_share", "share", "lower", exact=True,
           moves={"wall_s": SIM_WORKLOADS}),
)

_FORWARDING = ("chi-droptail", "red-adversary")
_SUMMARIES = ("pi2-abilene", "fatih-abilene")

#: layer -> workloads where its share is large enough to move ``wall_s``.
_LAYER_MOVES: Dict[str, Tuple[str, ...]] = {
    "net.events": _FORWARDING,
    "net.router": _FORWARDING,
    "net.queues": _FORWARDING,
    "net.tcp": _FORWARDING,
    "net.packet": _FORWARDING,
    "net.routing": ("fatih-abilene", "pi2-abilene"),
    "net.adversary": ("red-adversary",),
    "crypto.fingerprint": SIM_WORKLOADS,
    "crypto.signatures": ("pi2-abilene",),
    "core.summaries": _SUMMARIES,
    "core.validation": _SUMMARIES,
    "core.segments": _SUMMARIES,
    "core.pi2": ("pi2-abilene",),
    "core.pik2": ("fatih-abilene",),
    "core.chi": _FORWARDING,
    "core.fatih": ("fatih-abilene",),
    "dist.consensus": ("pi2-abilene",),
    "dist.sync": _SUMMARIES,
    "dist.reconcile": _SUMMARIES,
    "obs": ("obs-forensics",),
    "eval": _SUMMARIES,
    "sweep": ("sweep-cold", "sweep-warm"),
    OTHER: ALL,
}


def _layer_table():
    for layer in LAYERS:
        moves = {"wall_s": _LAYER_MOVES[layer]}
        yield Metric(f"{layer}.self_s", "s", "lower", moves=moves)
        yield Metric(f"{layer}.share", "share", "lower", moves=moves)


def _count(name, workloads, *, unit="count", better="lower",
           moved="wall_s", also=None):
    """A metric that repeats exactly for a fixed seed."""
    moves = {moved: tuple(workloads)}
    moves.update(also or {})
    return Metric(name, unit, better, moves=moves, exact=True)


def _time(name, workloads, *, unit="s", better="lower", moved="wall_s"):
    """A host-dependent reading from the traced repetition."""
    return Metric(name, unit, better, moves={moved: tuple(workloads)})


_SWEEPS = ("sweep-cold", "sweep-warm")
_OBS = ("obs-forensics",)

PER_LAYER = QUALITY + tuple(_layer_table()) + (
    # simulator work counts (exact for a fixed seed)
    _count("net.events.dispatched", _FORWARDING),
    _count("net.events.scheduled", _FORWARDING),
    _count("net.router.hops", _FORWARDING),
    _count("net.router.events_per_hop", _FORWARDING, unit="ratio"),
    _count("net.queues.offers", ("red-adversary", "chi-droptail")),
    _count("crypto.fingerprint.calls", SIM_WORKLOADS),
    _count("crypto.fingerprint.per_hop", SIM_WORKLOADS, unit="ratio"),
    _count("crypto.fingerprint.cache_hit_share", SIM_WORKLOADS,
           unit="share", better="higher"),
    _count("crypto.signatures.signs", ("pi2-abilene",)),
    _count("crypto.signatures.verifies", ("pi2-abilene",)),
    _count("dist.consensus.runs", ("pi2-abilene",)),
    _count("dist.consensus.signs_per_run", ("pi2-abilene",), unit="ratio"),
    _count("core.pi2.rounds", ("pi2-abilene",)),
    _count("core.summaries.observes", _SUMMARIES,
           also={"peak_rss_mb": ("fatih-abilene",)}),
    _count("core.summaries.freezes", _SUMMARIES,
           also={"peak_rss_mb": ("fatih-abilene",)}),
    _count("core.validation.validates", _SUMMARIES),
    _count("dist.reconcile.calls", _SUMMARIES),
    _count("core.chi.rounds", _FORWARDING),
    _count("net.routing.installs", ("fatih-abilene", "pi2-abilene")),
    # sweep telemetry and the CLI wall around it
    _time("sweep.runner.wall_s", _SWEEPS),
    _time("sweep.runner.run_wall_s", ("sweep-cold",)),
    _time("sweep.runner.overhead_s", ("sweep-cold",)),
    _time("sweep.runner.utilization", ("sweep-cold",), unit="share",
          better="higher"),
    _count("sweep.runner.runs", _SWEEPS),
    _count("sweep.runner.retries", _SWEEPS),
    _count("sweep.cache.hits", ("sweep-warm",), better="higher"),
    _count("sweep.cache.misses", ("sweep-cold",)),
    _count("sweep.cache.hit_share", ("sweep-warm",), unit="share",
           better="higher"),
    _time("sweep.cli.outside_s", _SWEEPS),
    _time("sweep.executors.dispatch_s", ("sweep-cold",)),
    # sweep.json holds wall-clock floats, so its size is not exact
    _time("sweep.artifacts.bytes", _SWEEPS, unit="bytes"),
    _time("sweep.merge.self_s", ("sweep-warm",)),
    _time("cli.import_s", ("sweep-warm", "sweep-cold", "obs-forensics")),
    # trace readers
    _time("obs.query.index_build_s", _OBS),
    _time("obs.query.scan_s", _OBS),
    _time("obs.query.indexed_s", _OBS),
    _time("obs.query.events_per_s", _OBS, unit="1/s", better="higher"),
    _count("obs.query.bytes", _OBS, unit="bytes",
           also={"setup_s": _OBS}),
    _count("obs.query.selected_share", _OBS, unit="share"),
    _time("obs.forensics.explain_s", _OBS),
    _count("obs.forensics.verdicts", _OBS),
    _time("obs.diff.self_s", _OBS),
    # cost of the repo's own recorder, and of this harness's instruments
    # (the sim workloads run with the recorder off: their wall_s must not
    # move; the traced sweeps of obs-forensics' set-up pay it)
    _time("obs.trace.enabled_overhead_share", _OBS, unit="share",
          moved="setup_s"),
    _count("obs.trace.events", _OBS, moved="setup_s"),
    _count("obs.trace.bytes_per_hop", _OBS, unit="bytes", moved="setup_s"),
    _time("trace.overhead_share", ALL, unit="share"),
)


def benchmark_manifest(command, paths, run_seconds) -> dict:
    """The ``BENCHMARK.json`` document these tables describe."""
    return {
        "command": list(command),
        "paths": list(paths),
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
