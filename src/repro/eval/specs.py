"""Typed, composable, sweepable scenario specifications.

A :class:`ScenarioSpec` bundles the axes the paper's evaluation (and
WedgeTail-style attack matrices) vary independently:

* :class:`TopologySpec` — which network, from a fixed catalogue
  (``abilene``, ``sprintlink_like``, ``ebone_like``, ``line``, ``ring``,
  ``grid``, the χ testbed's ``simple``);
* :class:`AdversarySpec` — what the compromised router does (behavior
  kind, intensity/rate, flow targeting);
* :class:`PlacementSpec` — where the compromised router sits (``fixed``,
  ``seeded-random``, ``max-betweenness``, ``articulation-point``);
* :class:`TrafficSpec` — the offered load crossing it;
* ``detector`` — Π2, Πk+2 or Fatih on a routed topology, χ on ``simple``.

A spec field, its default and its coercion are each written once, on
the dataclass; the one ``to_dict``/``from_dict`` pair (:class:`_SpecDict`)
is derived from the fields, so every spec can flow through the sweep
engine's ``ParamSpec``/``--grid``/cache-key machinery.  ``to_dict``
output is plain JSON data whose canonical dump
(``json.dumps(..., sort_keys=True)``) is byte-stable across a
round-trip, which is what makes grid cells cacheable and mergeable.
Construction is deterministic — placement resolution and adversary
builds draw only from seeds handed in explicitly.

:func:`droptail_spec` and :func:`red_spec` describe the χ testbed's two
queue disciplines as a :class:`ScenarioSpec`.  Specs are data: this
module imports :mod:`repro.net` only inside the functions that build a
topology or an adversary, so the experiment registry and the sweep
engine can hold specs without the simulator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields, replace
from typing import (
    TYPE_CHECKING, Callable, ClassVar, Dict, Mapping, Optional, Sequence,
    Tuple,
)

if TYPE_CHECKING:
    from repro.net import Compromise, Network, Topology

#: Bytes per second in one megabit/second (``repro.net.MBPS``).
_MBPS = 125_000

#: Adversarial behaviors an :class:`AdversarySpec` can request (the
#: paper's traffic-faulty taxonomy, §2.2, plus "none" for control cells).
BEHAVIORS = (
    "none", "drop", "modify", "reorder", "delay", "fabricate", "misroute",
)

#: The χ chapter's drops under cover (Figs 6.7-6.16): only behind a
#: nearly full queue, only above a RED average queue, or only SYNs.
CHI_BEHAVIORS = ("queue-drop", "red-avg-drop", "syn-drop")

#: Strategies a :class:`PlacementSpec` can use to pick the bad router.
PLACEMENT_STRATEGIES = (
    "fixed", "seeded-random", "max-betweenness", "articulation-point",
)

#: Offered-load shapes a :class:`TrafficSpec` can request.
TRAFFIC_KINDS = ("cbr", "tcp")

#: Detectors: Π2 (Fig 5.1), Πk+2 (Fig 5.3), χ (Ch. 6), Fatih (§5.3).
DETECTORS = ("pi2", "pik2", "chi", "fatih")

#: Where the χ testbed's droptail (Figs 6.5-6.9) and RED (Figs
#: 6.11-6.16) disciplines differ unless a ``chi`` spec's options say
#: otherwise: queue size, router jitter and the Ch. 6 schedule (times in
#: seconds; only droptail validation is calibrated, so only it learns
#: first, attack-free).
TESTBED_DEFAULTS: Dict[str, Dict[str, object]] = {
    "droptail": {"queue_limit": 60_000, "proc_jitter": 0.0004,
                 "learning_until": 20.0, "first_round": 10,
                 "attack_at": 50.0, "end": 110.0},
    "red": {"queue_limit": 120_000, "proc_jitter": 0.0,
            "first_round": 1, "attack_at": 50.0, "end": 300.0},
}

#: When a Fatih run's flows start: link-state routing has converged
#: (about 53 s after boot on Abilene, under its default timers).
FATIH_TRAFFIC_AT = 58.0

#: Canonical option storage: a sorted tuple of (key, value) pairs.
Options = Tuple[Tuple[str, object], ...]


def _canonical_options(options: object) -> Options:
    """Sorted, duplicate-free (key, value) tuple from a mapping/iterable."""
    if isinstance(options, Mapping):
        items = list(options.items())
    else:
        items = [tuple(pair) for pair in options]  # type: ignore[union-attr]
    out = tuple(sorted((str(key), value) for key, value in items))
    names = [key for key, _ in out]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate option keys: {sorted(names)}")
    return out


def _lookup(options: Options, key: str, default: object = None) -> object:
    for name, value in options:
        if name == key:
            return value
    return default


class _SpecDict:
    """``to_dict``/``from_dict`` of a spec dataclass, read off its fields.

    A spec field is declared once, on the dataclass.  ``to_dict`` walks
    the fields in declaration order (a nested spec through its own
    ``to_dict``, ``options`` as a plain dict); ``from_dict`` accepts
    exactly the field names, leaves absent keys to the dataclass
    defaults, and leaves all coercion and validation to
    ``__post_init__``.
    """

    #: Names the spec in ``from_dict``'s unknown-key error.
    label: ClassVar[str]

    def to_dict(self) -> dict:
        data = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, _SpecDict):
                value = value.to_dict()
            elif spec_field.name == "options":
                value = dict(value)
            data[spec_field.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping):
        allowed = [spec_field.name for spec_field in fields(cls)]
        unknown = sorted(set(data) - set(allowed))
        if unknown:
            raise ValueError(
                f"unknown {cls.label} key(s) "
                f"{', '.join(repr(k) for k in unknown)}; "
                f"accepted: {', '.join(allowed)}")
        return cls(**data)


# ---------------------------------------------------------------------------
# Topology catalogue
# ---------------------------------------------------------------------------

def _net_topology(name: str) -> Callable[..., Topology]:
    """The ``repro.net`` factory ``name``, imported when first built."""
    def build(**options) -> Topology:
        import repro.net

        return getattr(repro.net, name)(**options)
    return build


def _line_topology(n: int = 6, **link_kwargs) -> Topology:
    from repro.net import chain

    return chain(int(n), **link_kwargs)


def _ring_topology(n: int = 8, **link_kwargs) -> Topology:
    from repro.net import ring

    return ring(int(n), **link_kwargs)


def _grid_topology(rows: int = 3, cols: int = 3, **link_kwargs) -> Topology:
    from repro.net import grid

    return grid(int(rows), int(cols), **link_kwargs)


def _simple_topology(n_sources: int = 3,
                     bottleneck_bw: float = 1.0 * _MBPS,
                     queue_limit: int = 60_000,
                     with_victim_sink: bool = False) -> Topology:
    """The emulation chapter's testbed (Fig 6.4): sources -> r -> rd."""
    from repro.net import Topology

    topo = Topology("fig6.4-simple")
    for i in range(int(n_sources)):
        topo.add_link(f"s{i}", "r", bandwidth=80 * _MBPS, delay=0.002)
    topo.add_link("r", "rd", bandwidth=float(bottleneck_bw), delay=0.005,
                  queue_limit=int(queue_limit))
    topo.add_link("rd", "sink", bandwidth=80 * _MBPS, delay=0.002)
    if with_victim_sink:
        topo.add_link("rd", "vsink", bandwidth=80 * _MBPS, delay=0.002)
    return topo


#: Name -> factory for :meth:`TopologySpec.build`.  A factory takes the
#: spec's options as keyword arguments and is deterministic in them.
_TOPOLOGY_CATALOGUE: Dict[str, Callable[..., Topology]] = {
    "abilene": _net_topology("abilene"),
    "sprintlink_like": _net_topology("sprintlink_like"),
    "ebone_like": _net_topology("ebone_like"),
    "line": _line_topology,
    "ring": _ring_topology,
    "grid": _grid_topology,
    "simple": _simple_topology,
}


def topology_names() -> Tuple[str, ...]:
    """Sorted names of every catalogued topology."""
    return tuple(sorted(_TOPOLOGY_CATALOGUE))


@dataclass(frozen=True)
class TopologySpec(_SpecDict):
    """Which network to build, by catalogue name plus factory options."""

    label = "topology"

    name: str = "abilene"
    options: Options = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", str(self.name))
        object.__setattr__(self, "options", _canonical_options(self.options))

    def option(self, key: str, default: object = None) -> object:
        return _lookup(self.options, key, default)

    def build(self) -> Topology:
        try:
            factory = _TOPOLOGY_CATALOGUE[self.name]
        except KeyError:
            raise ValueError(
                f"unknown topology {self.name!r}; registered: "
                f"{', '.join(topology_names())}") from None
        return factory(**{key: value for key, value in self.options})


# ---------------------------------------------------------------------------
# Adversary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdversarySpec(_SpecDict):
    """What the compromised router does to traffic crossing it.

    ``rate`` is the behavior's intensity: the fraction of matched packets
    affected for ``drop``/``modify``/``misroute``; ignored for
    ``reorder``/``delay`` (use the ``period``/``hold``/``delay`` options);
    and the forged-packet rate multiplier for ``fabricate`` (injection
    runs at ``rate * 100`` packets/second unless a ``rate_pps`` option
    overrides it).  ``targeting`` is ``"flows"`` (only the scenario's
    monitored flows are matched) or ``"all"`` (every packet is fair game).

    The :data:`CHI_BEHAVIORS` drop at ``rate`` too, but only under cover
    (options): ``queue-drop`` while the queue is ``fill_threshold`` full,
    ``red-avg-drop`` while the RED average is ``avg_threshold`` bytes,
    ``syn-drop`` only SYNs toward ``victim``.  Every behavior honours
    ``flows`` (victim flows, instead of the scenario's monitored ones),
    ``seed_offset`` (added to the scenario seed for the attack's RNG;
    default 1) and ``also`` (a second adversary, in ``to_dict`` form,
    composed behind this one).
    """

    label = "adversary"

    behavior: str = "drop"
    rate: float = 1.0
    targeting: str = "flows"
    options: Options = ()

    def __post_init__(self) -> None:
        behavior = str(self.behavior)
        if behavior not in BEHAVIORS + CHI_BEHAVIORS:
            raise ValueError(
                f"unknown adversary behavior {behavior!r}; one of "
                f"{', '.join(BEHAVIORS + CHI_BEHAVIORS)}")
        targeting = str(self.targeting)
        if targeting not in ("flows", "all"):
            raise ValueError(
                f"unknown adversary targeting {targeting!r}; "
                f"'flows' or 'all'")
        rate = float(self.rate)
        if not 0.0 <= rate or rate != rate:
            raise ValueError(f"adversary rate must be >= 0, got {rate}")
        object.__setattr__(self, "behavior", behavior)
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "targeting", targeting)
        object.__setattr__(self, "options", _canonical_options(self.options))

    def option(self, key: str, default: object = None) -> object:
        return _lookup(self.options, key, default)

    def build(
        self,
        network: Network,
        router: str,
        flow_ids: Sequence[str],
        seed: int,
        *,
        wrong_neighbor: Optional[str] = None,
        inject_neighbor: Optional[str] = None,
        forged_src: Optional[str] = None,
        forged_dst: Optional[str] = None,
    ) -> Optional[Compromise]:
        """Instantiate the compromise for ``router`` (None for "none").

        ``seed`` is the scenario's seed.  ``wrong_neighbor`` is required
        for ``misroute``; ``inject_neighbor``/``forged_src``/
        ``forged_dst`` for ``fabricate``.  The caller attaches the
        returned object to ``network.routers[router].compromise`` (and
        calls ``start`` for fabricate, which is an active behaviour).
        """
        from repro.net import (
            CombinedCompromise,
            DelayAttack,
            DropFlowAttack,
            DropFractionAttack,
            FabricateAttack,
            MisrouteAttack,
            ModifyAttack,
            QueueConditionalDropAttack,
            REDAverageConditionalDropAttack,
            ReorderAttack,
            SynDropAttack,
        )

        also = self.option("also")
        if also is not None:
            alone = replace(self, options=[
                pair for pair in self.options if pair[0] != "also"])
            return CombinedCompromise(*(
                part.build(network, router, flow_ids, seed,
                           wrong_neighbor=wrong_neighbor,
                           inject_neighbor=inject_neighbor,
                           forged_src=forged_src, forged_dst=forged_dst)
                for part in (alone, AdversarySpec.from_dict(also))))
        flows = sorted(self.option("flows", flow_ids))
        target = flows if self.targeting == "flows" else None
        seed += int(self.option("seed_offset", 1))
        if self.behavior == "none":
            return None
        if self.behavior == "queue-drop":
            return QueueConditionalDropAttack(
                flows, float(self.option("fill_threshold", 0.9)),
                fraction=self.rate, seed=seed)
        if self.behavior == "red-avg-drop":
            return REDAverageConditionalDropAttack(
                flows, float(self.option("avg_threshold", 45_000)),
                fraction=self.rate, seed=seed)
        if self.behavior == "syn-drop":
            return SynDropAttack(str(self.option("victim", "vsink")),
                                 fraction=self.rate, seed=seed)
        if self.behavior == "drop":
            if target is None:
                return DropFractionAttack(self.rate, seed=seed)
            return DropFlowAttack(target, fraction=self.rate, seed=seed)
        if self.behavior == "modify":
            return ModifyAttack(target, fraction=self.rate, seed=seed)
        if self.behavior == "reorder":
            return ReorderAttack(target,
                                 period=int(self.option("period", 4)),
                                 hold=float(self.option("hold", 0.05)))
        if self.behavior == "delay":
            return DelayAttack(float(self.option("delay", 0.05)),
                               flows=target)
        if self.behavior == "misroute":
            if wrong_neighbor is None:
                raise ValueError("misroute needs a wrong_neighbor")
            return MisrouteAttack(wrong_neighbor, flows=target,
                                  fraction=self.rate, seed=seed)
        # fabricate
        if inject_neighbor is None or forged_src is None or forged_dst is None:
            raise ValueError(
                "fabricate needs inject_neighbor, forged_src and forged_dst")
        rate_pps = float(self.option("rate_pps", 100.0 * self.rate))
        if rate_pps <= 0.0:
            raise ValueError("fabricate needs a positive injection rate")
        return FabricateAttack(
            network, router, inject_neighbor, forged_src, forged_dst,
            flow_id=str(self.option("flow_id", f"forged-{router}")),
            rate_pps=rate_pps, seed=seed)


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlacementSpec(_SpecDict):
    """Where the compromised router sits.

    * ``fixed`` — the named ``router`` (must be a transit candidate);
    * ``seeded-random`` — uniform over the sorted candidates, seeded;
    * ``max-betweenness`` — the candidate with the highest betweenness
      centrality (lexicographic tie-break);
    * ``articulation-point`` — the highest-betweenness articulation
      point among the candidates, falling back to ``max-betweenness``
      when the candidate set contains no cut vertex.
    """

    label = "placement"

    strategy: str = "seeded-random"
    router: str = ""

    def __post_init__(self) -> None:
        strategy = str(self.strategy)
        if strategy not in PLACEMENT_STRATEGIES:
            raise ValueError(
                f"unknown placement strategy {strategy!r}; one of "
                f"{', '.join(PLACEMENT_STRATEGIES)}")
        object.__setattr__(self, "strategy", strategy)
        object.__setattr__(self, "router", str(self.router))

    def resolve(self, topology: Topology, seed: int,
                candidates: Sequence[str]) -> str:
        """Pick the adversary's router, deterministically for a seed."""
        pool = sorted(set(candidates))
        if not pool:
            raise ValueError(
                f"no transit candidates to place an adversary on in "
                f"{topology.name!r}")
        if self.strategy == "fixed":
            if not self.router:
                raise ValueError(
                    "placement.strategy=fixed needs placement.router")
            if self.router not in pool:
                raise ValueError(
                    f"placement.router {self.router!r} is not a transit "
                    f"candidate in {topology.name!r}")
            return self.router
        if self.strategy == "seeded-random":
            return random.Random(seed).choice(pool)
        centrality = topology.betweenness()
        if self.strategy == "articulation-point":
            cut = sorted(topology.articulation_points() & set(pool))
            if cut:
                pool = cut
        # max() keeps the first of equals, so sorted pool => lexicographic
        # tie-break and a deterministic pick.
        return max(pool, key=lambda name: centrality.get(name, 0.0))


# ---------------------------------------------------------------------------
# Traffic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrafficSpec(_SpecDict):
    """Offered load: how many flows, how fast, for how long."""

    label = "traffic"

    kind: str = "cbr"
    flows: int = 2
    rate_bps: float = 600_000.0
    duration: float = 4.0

    def __post_init__(self) -> None:
        kind = str(self.kind)
        if kind not in TRAFFIC_KINDS:
            raise ValueError(
                f"unknown traffic kind {kind!r}; one of "
                f"{', '.join(TRAFFIC_KINDS)}")
        flows = int(self.flows)
        if flows < 1:
            raise ValueError("traffic needs at least one flow")
        rate_bps = float(self.rate_bps)
        duration = float(self.duration)
        if rate_bps <= 0.0 or duration <= 0.0:
            raise ValueError("traffic rate_bps and duration must be > 0")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "flows", flows)
        object.__setattr__(self, "rate_bps", rate_bps)
        object.__setattr__(self, "duration", duration)


# ---------------------------------------------------------------------------
# The composed scenario
# ---------------------------------------------------------------------------

def transit_candidates(topology: Topology) -> Tuple[str, ...]:
    """Routers interior to at least one shortest path in *topology*.

    This is the candidate pool adversary placement draws from: only a
    transit router ever sees the traffic it could attack.  Shared by
    scenario construction and forensic ground-truth resolution so the
    two can never disagree about where an adversary may sit.
    """
    from repro.net.routing import compute_all_paths

    paths = compute_all_paths(topology)
    return tuple(sorted({hop for path in paths.values()
                         for hop in path[1:-1]}))


def resolve_ground_truth(spec: "ScenarioSpec") -> dict:
    """:func:`ground_truth` resolved without running anything, by the
    placement procedure :func:`repro.eval.build_scenario` uses, so
    forensics can recover it from a sweep manifest's spec alone."""
    router = None
    if spec.adversary.behavior != "none":
        topo = spec.topology.build()
        router = spec.placement.resolve(topo, spec.seed,
                                        transit_candidates(topo))
    return ground_truth(spec, router)


def ground_truth(spec: "ScenarioSpec", router: Optional[str]) -> dict:
    """JSON-ready ground truth (the traced ``scenario.ground_truth``
    event's fields): the planted ``router`` (None if none), when it
    activates, and the spec's coordinates."""
    return {
        "behavior": spec.adversary.behavior,
        "rate": spec.adversary.rate,
        "placement": spec.placement.strategy,
        "topology": spec.topology.name,
        "seed": spec.seed,
        "router": router,
        "attack_at": None if router is None else spec.attack_at,
    }


def _as_spec(value: object, cls: type):
    if value is None:
        return cls()
    if isinstance(value, cls):
        return value
    if isinstance(value, Mapping):
        return cls.from_dict(value)
    raise ValueError(
        f"{cls.label} must be a {cls.__name__} or a mapping, "
        f"got {type(value).__name__}")


@dataclass(frozen=True)
class ScenarioSpec(_SpecDict):
    """A complete, serializable description of one evaluation cell.

    ``detector`` picks the builder: χ runs on ``simple`` only, Π2, Πk+2
    and Fatih only elsewhere (rejected here otherwise, as are a droptail
    χ attack inside χ's learning period and a Fatih run that ends, or
    attacks, before :data:`FATIH_TRAFFIC_AT`).  ``rounds`` is
    the last monitored round.  ``options`` are read by the builders of
    :mod:`repro.eval.scenarios`: ``attack_at``, ``end``, ``endpoints``
    (one ``[src, dst]`` per flow), ``monitor``, ``codec``, ``sampling``,
    ``first_round``, ``proc_jitter``, the testbed's ``queue``, ….
    """

    label = "scenario"

    topology: TopologySpec = TopologySpec()
    adversary: AdversarySpec = AdversarySpec()
    placement: PlacementSpec = PlacementSpec()
    traffic: TrafficSpec = TrafficSpec()
    detector: str = "pi2"
    tau: float = 1.0
    rounds: int = 3
    seed: int = 0
    options: Options = ()

    def __post_init__(self) -> None:
        topology = self.topology
        if isinstance(topology, str):  # a catalogue name
            topology = TopologySpec(name=topology)
        object.__setattr__(self, "topology",
                           _as_spec(topology, TopologySpec))
        object.__setattr__(self, "adversary",
                           _as_spec(self.adversary, AdversarySpec))
        object.__setattr__(self, "placement",
                           _as_spec(self.placement, PlacementSpec))
        object.__setattr__(self, "traffic",
                           _as_spec(self.traffic, TrafficSpec))
        detector = str(self.detector)
        if detector not in DETECTORS:
            raise ValueError(
                f"unknown detector {detector!r}; one of "
                f"{', '.join(DETECTORS)}")
        if (detector == "chi") != (self.topology.name == "simple"):
            raise ValueError(
                f"detector {detector!r} cannot watch topology "
                f"{self.topology.name!r}: chi runs on 'simple' only, "
                f"pi2, pik2 and fatih on a routed topology")
        object.__setattr__(self, "detector", detector)
        tau = float(self.tau)
        rounds = int(self.rounds)
        if tau <= 0.0:
            raise ValueError("tau must be > 0")
        if rounds < 1:
            raise ValueError("need at least one monitored round")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "rounds", rounds)
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "options", _canonical_options(self.options))
        ends = self.option("endpoints")
        if ends is not None and len(ends) != self.traffic.flows:
            raise ValueError(f"{len(ends)} endpoints for "
                             f"{self.traffic.flows} traffic flows")
        if detector == "chi":
            queue = str(self.option("queue", "droptail"))
            if queue not in TESTBED_DEFAULTS:
                raise ValueError(
                    f"unknown queue option {queue!r}; 'droptail' or 'red'")
            learning = float(self.option(
                "learning_until", TESTBED_DEFAULTS["droptail"]["learning_until"]))
            if (queue == "droptail" and self.adversary.behavior != "none"
                    and self.attack_at < learning):
                raise ValueError(
                    f"attack_at {self.attack_at} s falls in droptail chi's "
                    f"attack-free learning period (until {learning} s)")
        if detector == "fatih" and self.end <= FATIH_TRAFFIC_AT:
            raise ValueError(f"a fatih run ending at {self.end} s carries no "
                             f"traffic: its flows start at {FATIH_TRAFFIC_AT} s")
        if (detector == "fatih" and self.adversary.behavior != "none"
                and self.attack_at < FATIH_TRAFFIC_AT):
            raise ValueError(
                f"attack_at {self.attack_at} s comes before a fatih run's "
                f"traffic: its flows start at {FATIH_TRAFFIC_AT} s")

    def option(self, key: str, default: object = None) -> object:
        return _lookup(self.options, key, default)

    def _default(self, key: str, routed: float) -> object:
        """The χ testbed's default for ``key`` on a chi spec, or ``routed``."""
        if self.detector == "chi":
            return TESTBED_DEFAULTS[str(self.option("queue", "droptail"))][key]
        return routed

    @property
    def attack_at(self) -> float:
        """When the adversary activates: the ``attack_at`` option, by
        default 50 s on the χ testbed, :data:`FATIH_TRAFFIC_AT` under
        Fatih and τ (round 1's start) elsewhere.  The builders, the trace
        and :func:`resolve_ground_truth` read it."""
        routed = FATIH_TRAFFIC_AT if self.detector == "fatih" else self.tau
        return float(self.option("attack_at",
                                 self._default("attack_at", routed)))

    @property
    def end(self) -> float:
        """When the run ends: the ``end`` option, by default the queue
        discipline's on the χ testbed and the rounds plus 3τ elsewhere."""
        return float(self.option("end", self._default(
            "end", self.tau * (self.rounds + 1) + 3.0 * self.tau)))


# -- spec constructors for the simple testbed -------------------------------

def _testbed_spec(queue: str, n_sources: int, bottleneck_bw: float,
                  queue_limit: int, tau: float, seed: int,
                  adversary: Optional[AdversarySpec], rounds: int,
                  options: Dict[str, object]) -> ScenarioSpec:
    return ScenarioSpec(
        topology=TopologySpec("simple", options={
            "bottleneck_bw": float(bottleneck_bw),
            "queue_limit": int(queue_limit),
        }),
        adversary=adversary or AdversarySpec(behavior="none"),
        placement=PlacementSpec(strategy="fixed", router="r"),
        traffic=TrafficSpec(kind="tcp", flows=n_sources,
                            rate_bps=float(bottleneck_bw)),
        detector="chi", tau=tau, rounds=rounds, seed=seed,
        options=dict({"attack_at": TESTBED_DEFAULTS[queue]["attack_at"]},
                     **options, queue=queue),
    )


def droptail_spec(
    n_sources: int = 3,
    bottleneck_bw: float = 1.0 * _MBPS,
    queue_limit: int = TESTBED_DEFAULTS["droptail"]["queue_limit"],
    tau: float = 2.0,
    proc_jitter: float = TESTBED_DEFAULTS["droptail"]["proc_jitter"],
    with_connector: bool = False,
    seed: int = 0,
    adversary: Optional[AdversarySpec] = None,
    rounds: int = 3,
    **schedule: float,
) -> ScenarioSpec:
    """Spec form of the droptail testbed (Figs 6.5-6.9).

    ``adversary`` compromises router ``r``; ``rounds`` is the last
    monitored round; ``schedule`` overrides the ``learning_until``,
    ``first_round``, ``attack_at`` and ``end`` scenario options.
    """
    return _testbed_spec(
        "droptail", n_sources, bottleneck_bw, queue_limit, tau, seed,
        adversary, rounds,
        dict(schedule, proc_jitter=float(proc_jitter),
             with_connector=bool(with_connector)))


def red_spec(
    n_sources: int = 8,
    bottleneck_bw: float = 1.0 * _MBPS,
    queue_limit: int = TESTBED_DEFAULTS["red"]["queue_limit"],
    tau: float = 5.0,
    with_connector: bool = False,
    seed: int = 0,
    adversary: Optional[AdversarySpec] = None,
    rounds: int = 3,
    **schedule: float,
) -> ScenarioSpec:
    """Spec form of the RED testbed (Figs 6.11-6.16); see
    :func:`droptail_spec` (RED validation has no learning period)."""
    return _testbed_spec(
        "red", n_sources, bottleneck_bw, queue_limit, tau, seed,
        adversary, rounds,
        dict(schedule, with_connector=bool(with_connector)))
