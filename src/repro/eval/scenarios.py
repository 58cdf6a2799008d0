"""Canned experiment scenarios, built from typed :mod:`repro.eval.specs`.

This is the one :mod:`repro.eval` module that imports the simulator at
its top: it is where a spec becomes a running network.  Two families
live here:

* the emulation chapter's "simple topology" testbed (Fig 6.4): several
  source routers feeding one router ``r`` whose output link to ``rd`` is
  the bottleneck; TCP flows congest the bottleneck queue and a victim
  flow is what the compromised ``r`` attacks.  The spec helpers
  :func:`~repro.eval.specs.droptail_spec` /
  :func:`~repro.eval.specs.red_spec` describe it (queue discipline,
  load, adversary, schedule); :func:`build_scenario` returns a
  :class:`BottleneckScenario` with a χ detector on the bottleneck.
* WedgeTail-style attack matrices: :func:`build_scenario` on any other
  catalogued :class:`~repro.eval.specs.ScenarioSpec` resolves adversary
  placement, routes monitored flows across the bad router and arms the
  spec's Π2 or Πk+2 detector over their segments, returning an
  :class:`AttackScenario`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.core import (
    PathOracle,
    PiConfig,
    ProtocolChi,
    ProtocolPi2,
    ProtocolPiK2,
    SummaryPolicy,
    arm_protocol,
)
from repro.dist.sync import RoundSchedule
from repro.net import (
    CBRSource,
    Compromise,
    DropTailQueue,
    FabricateAttack,
    MBPS,
    Network,
    REDParams,
    REDQueue,
    TCPFlow,
    install_static_routes,
)
from repro.eval.specs import (
    ScenarioSpec,
    _simple_topology,
    transit_candidates,
)
from repro.obs import recorder


class RepeatedConnector:
    """A host that keeps opening short TCP connections to a victim server.

    The workload of Fig 6.9 / 6.16: SYN loss hurts disproportionately
    because the initial retransmission timeout is 3 s.  Each connection
    transfers a few segments then the next one starts.
    """

    def __init__(self, network: Network, src: str, dst: str,
                 label: str = "victim", packets_per_conn: int = 20,
                 spacing: float = 1.0, start: float = 0.0,
                 stop: Optional[float] = None) -> None:
        self.network = network
        self.src = src
        self.dst = dst
        self.label = label
        self.packets_per_conn = packets_per_conn
        self.spacing = spacing
        self.stop = stop
        self.connections: List[TCPFlow] = []
        network.sim.schedule_at(start, self._open_next)

    def _open_next(self) -> None:
        now = self.network.sim.now
        if self.stop is not None and now >= self.stop:
            return
        index = len(self.connections)
        flow = TCPFlow(
            self.network, self.src, self.dst,
            flow_id=f"{self.label}-conn{index}",
            total_packets=self.packets_per_conn, start=now,
        )
        self.connections.append(flow)
        self.network.sim.schedule(self.spacing, self._check_done, flow)

    def _check_done(self, flow: TCPFlow) -> None:
        if flow.done:
            self._open_next()
            return
        self.network.sim.schedule(self.spacing, self._check_done, flow)

    def setup_times(self) -> List[float]:
        return [f.connection_setup_time() for f in self.connections
                if f.connection_setup_time() is not None]

    def syn_retry_count(self) -> int:
        return sum(f.syn_retries for f in self.connections)


# RED parameters calibrated so that, under the default 8-flow load on a
# 1 Mbps bottleneck, the average queue oscillates through the paper's
# 45,000- and 54,000-byte attack thresholds (Figs 6.12-6.13).
DEFAULT_RED_PARAMS = REDParams(
    min_th=30_000, max_th=90_000, max_p=0.05, weight=0.002,
)

#: Where the droptail (Figs 6.5-6.9) and RED (Figs 6.11-6.16) testbeds
#: differ unless the spec's options say otherwise: queue size, router
#: jitter and the Ch. 6 schedule (times in seconds; only droptail
#: validation is calibrated, so only it learns first).
_QUEUE_DEFAULTS: Dict[str, Dict[str, object]] = {
    "droptail": {"queue_limit": 60_000, "proc_jitter": 0.0004,
                 "learning_until": 20.0,
                 "first_round": 10, "attack_at": 50.0, "end": 110.0},
    "red": {"queue_limit": 120_000, "proc_jitter": 0.0,
            "first_round": 1, "attack_at": 50.0, "end": 300.0},
}


@dataclass
class BottleneckScenario:
    """The built Fig 6.4 testbed: network, χ on the bottleneck, traffic.

    ``attack`` already sits on router ``r``, dormant until
    ``options["attack_at"]``; ``options`` is the spec's scenario options
    over the defaults of its queue discipline
    (:func:`repro.eval.experiments.run_testbed` plays the schedule they
    describe).
    """

    network: Network
    chi: ProtocolChi
    flows: Dict[str, TCPFlow]
    target: Tuple[str, str]
    connector: Optional[RepeatedConnector]
    attack: Optional[Compromise]
    options: Dict[str, object]

    @property
    def bottleneck_queue(self):
        router, downstream = self.target
        return self.network.routers[router].interfaces[downstream].queue

    @property
    def red_params(self) -> Optional[REDParams]:
        """The bottleneck's RED parameters; None on a droptail bottleneck."""
        queue = self.bottleneck_queue
        return queue.params if isinstance(queue, REDQueue) else None


def _bottleneck_scenario(spec: ScenarioSpec) -> BottleneckScenario:
    """The droptail or RED testbed, by the scenario option ``queue``.

    One long-lived TCP flow per source router toward ``sink``; the flow
    from ``s1`` is the conventional attack victim ("selected flow").
    With the ``with_connector`` option a repeated-connection host runs
    from ``s0`` toward ``vsink`` (the SYN-attack victim).
    """
    queue = str(spec.option("queue", "droptail"))
    if queue not in _QUEUE_DEFAULTS:
        raise ValueError(
            f"unknown queue option {queue!r}; 'droptail' or 'red'")
    options = dict(_QUEUE_DEFAULTS[queue], **dict(spec.options))
    red = queue == "red"
    with_connector = bool(options.get("with_connector", False))
    topo = _simple_topology(
        spec.traffic.flows,
        spec.topology.option("bottleneck_bw", 1.0 * MBPS),
        spec.topology.option("queue_limit", options["queue_limit"]),
        with_victim_sink=with_connector)

    def red_bottleneck(link):
        if link.src == "r" and link.dst == "rd":
            return REDQueue(link.queue_limit, params=DEFAULT_RED_PARAMS,
                            rng=random.Random(spec.seed + 1))
        return DropTailQueue(link.queue_limit)

    net = Network(topo, queue_factory=red_bottleneck if red else None,
                  proc_jitter=options["proc_jitter"], seed=spec.seed)
    chi = ProtocolChi(net, PathOracle(install_static_routes(net)),
                      RoundSchedule(tau=spec.tau), targets=[("r", "rd")])
    stagger = 0.15 if red else 0.1  # seconds between flow starts
    flows = {f"tcp{i}": TCPFlow(net, f"s{i}", "sink", f"tcp{i}",
                                start=stagger * (i + 1))
             for i in range(spec.traffic.flows)}
    connector = (RepeatedConnector(net, "s0", "vsink", start=0.5)
                 if with_connector else None)
    attack = spec.adversary.build(net, "r", sorted(flows), spec.seed)
    if attack is not None:
        attack.activate_between(options["attack_at"])
        net.routers["r"].compromise = attack
    return BottleneckScenario(
        network=net, chi=chi, flows=flows, target=("r", "rd"),
        connector=connector, attack=attack, options=options)


# -- attack-matrix scenarios ------------------------------------------------

#: The summary policy a behavior needs to be visible (content otherwise).
_POLICIES = {"reorder": SummaryPolicy.ORDER,
             "delay": SummaryPolicy.TIMELINESS}


@dataclass
class AttackScenario:
    """A built attack-matrix cell: network, armed Π detector, traffic.

    ``protocol`` is the spec's ``detector`` (Π2 or Πk+2); its
    ``monitor``, ``schedule`` and path oracle hang off it.  ``run()``
    drives the simulator to :attr:`end_time`; detector output is then in
    ``protocol.states`` (score it with
    :func:`repro.core.accuracy_report` / ``completeness_report``).
    """

    spec: ScenarioSpec
    network: Network
    protocol: Union[ProtocolPi2, ProtocolPiK2]
    flows: Dict[str, object]
    flow_paths: Dict[str, Tuple[str, ...]]
    adversary_router: str
    attack: Optional[Compromise]

    @property
    def attack_at(self) -> float:
        """Virtual time the adversary activates (start of round 1)."""
        return self.spec.tau

    @property
    def end_time(self) -> float:
        """Monitored rounds plus settle time for the last summaries."""
        return self.spec.tau * (self.spec.rounds + 1) + 3.0 * self.spec.tau

    def run(self) -> "AttackScenario":
        self.network.run(self.end_time)
        return self


def _attack_scenario(spec: ScenarioSpec) -> AttackScenario:
    """Resolve placement, route flows across the bad router, arm the
    spec's detector over their paths."""
    topo = spec.topology.build()
    net = Network(topo, seed=spec.seed)
    paths = install_static_routes(net)

    # Transit candidates: routers that are interior to at least one
    # shortest path, so traffic can actually cross the adversary.  The
    # helper recomputes unconstrained shortest paths, which is exactly
    # what install_static_routes returned above — forensic ground-truth
    # resolution (resolve_ground_truth) shares it so the two can never
    # drift apart.
    candidates = list(transit_candidates(topo))
    bad = spec.placement.resolve(topo, spec.seed, candidates)

    pairs = sorted(ends for ends, path in paths.items()
                   if bad in path[1:-1])
    n_flows = min(spec.traffic.flows, len(pairs))
    chosen = [pairs[(i * len(pairs)) // n_flows] for i in range(n_flows)]
    flow_paths = {f"f{i + 1}": tuple(paths[ends])
                  for i, ends in enumerate(chosen)}

    behavior = spec.adversary.behavior
    policy = _POLICIES.get(behavior, SummaryPolicy.CONTENT)
    max_delay = None
    if policy is SummaryPolicy.TIMELINESS:
        attack_delay = float(spec.adversary.option("delay", 0.05))
        max_delay = float(spec.option("max_delay", attack_delay / 2.0))
    protocol = arm_protocol(
        net, paths, spec.detector, config=PiConfig(max_delay=max_delay),
        tau=spec.tau, last_round=spec.rounds, policy=policy,
        over=flow_paths.values())

    flows: Dict[str, object] = {}
    for i, (src, dst) in enumerate(chosen):
        flow_id = f"f{i + 1}"
        if spec.traffic.kind == "tcp":
            flows[flow_id] = TCPFlow(net, src, dst, flow_id,
                                     start=0.1 * (i + 1))
        else:
            flows[flow_id] = CBRSource(net, src, dst, flow_id,
                                       rate_bps=spec.traffic.rate_bps,
                                       duration=spec.traffic.duration)

    # Deterministic adversary context from the first monitored flow.
    first_path = flow_paths["f1"]
    position = first_path.index(bad)
    next_hop = first_path[position + 1]
    wrong = sorted(name for name in topo.neighbors(bad)
                   if name != next_hop)
    attack = spec.adversary.build(
        net, bad, sorted(flow_paths), spec.seed,
        wrong_neighbor=wrong[0] if wrong else None,
        inject_neighbor=next_hop,
        forged_src=first_path[0], forged_dst=first_path[-1])
    if attack is not None:
        attack.activate_between(spec.tau)
        net.routers[bad].compromise = attack
        if isinstance(attack, FabricateAttack):
            attack.start(spec.tau)

    rec = recorder()
    if rec.active:
        # Ground truth for forensics: which router is compromised, how,
        # and when it activates — joined later against detector.suspect
        # events to classify verdicts as true/false positives.
        rec.event(
            "scenario.ground_truth", net.sim.now,
            topology=spec.topology.name,
            behavior=behavior,
            rate=spec.adversary.rate,
            placement=spec.placement.strategy,
            seed=spec.seed,
            router=bad if attack is not None else None,
            attack_at=spec.tau if attack is not None else None,
            flows={fid: list(path) for fid, path in
                   sorted(flow_paths.items())},
        )

    return AttackScenario(spec=spec, network=net, protocol=protocol,
                          flows=flows, flow_paths=flow_paths,
                          adversary_router=bad, attack=attack)


def build_scenario(
    spec: ScenarioSpec,
) -> Union[AttackScenario, BottleneckScenario]:
    """Build the scenario a spec describes.

    The ``simple`` topology maps onto the emulation testbed (droptail or
    RED bottleneck, selected by the scenario option ``queue``); every
    other catalogued topology builds an :class:`AttackScenario`.
    """
    if spec.topology.name == "simple":
        return _bottleneck_scenario(spec)
    return _attack_scenario(spec)
