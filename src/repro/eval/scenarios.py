"""The one scenario builder: :func:`build_scenario` makes a running
network from a :class:`~repro.eval.specs.ScenarioSpec`, by its detector.
It is the one :mod:`repro.eval` module that imports the simulator at
its top.

* ``chi`` — the emulation chapter's "simple topology" testbed (Fig 6.4):
  several source routers feeding one router ``r`` whose output link to
  ``rd`` is the bottleneck; TCP flows congest the bottleneck queue and a
  victim flow is what the compromised ``r`` attacks.
  :func:`~repro.eval.specs.droptail_spec` /
  :func:`~repro.eval.specs.red_spec` describe it (queue discipline,
  load, adversary, schedule): a :class:`BottleneckScenario`.
* ``pi2`` / ``pik2`` / ``fatih`` — a routed cell (attack matrices, the
  Appendix B chain runs, Fig 5.7): the adversary is placed, flows start
  and the protocol is armed over their segments, or Fatih over
  link-state routing: an :class:`AttackScenario`.

Every adversary is built at set-up, dormant until ``spec.attack_at``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.core import (
    FatihSystem,
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
    LinkStateRouting,
    MBPS,
    Network,
    REDParams,
    REDQueue,
    TCPFlow,
    install_static_routes,
)
from repro.net.routing import compute_all_paths
from repro.eval.specs import (
    FATIH_TRAFFIC_AT,
    TESTBED_DEFAULTS,
    ScenarioSpec,
    _simple_topology,
    ground_truth,
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

@dataclass
class BottleneckScenario:
    """The built Fig 6.4 testbed: network, χ on the bottleneck, traffic.

    ``attack`` already sits on router ``r``, dormant until
    ``spec.attack_at``; ``options`` is the spec's scenario options
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
    options = dict(TESTBED_DEFAULTS[queue], **dict(spec.options))
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
        attack.activate_between(spec.attack_at)
        net.routers["r"].compromise = attack
    return BottleneckScenario(
        network=net, chi=chi, flows=flows, target=("r", "rd"),
        connector=connector, attack=attack, options=options)


# -- routed scenarios: Π2, Πk+2 and Fatih -----------------------------------

#: The summary policy a behavior needs to be visible (content otherwise).
_POLICIES = {"reorder": SummaryPolicy.ORDER,
             "delay": SummaryPolicy.TIMELINESS}


@dataclass
class AttackScenario:
    """A built routed cell: network, armed detector, traffic, adversary.

    ``protocol`` is the spec's Π2 or Πk+2 protocol (score its
    ``states`` with :func:`repro.core.accuracy_report` /
    ``completeness_report``) or a :class:`~repro.core.FatihSystem` (its
    link-state daemon is ``protocol.routing``).  ``run()`` drives the
    simulator to the spec's ``end``.
    """

    spec: ScenarioSpec
    network: Network
    protocol: Union[ProtocolPi2, ProtocolPiK2, FatihSystem]
    flows: Dict[str, object]
    flow_paths: Dict[str, Tuple[str, ...]]
    adversary_router: str
    attack: Optional[Compromise]

    @property
    def attack_at(self) -> float:
        """Virtual time the adversary activates."""
        return self.spec.attack_at

    def record_ground_truth(self) -> None:
        """Trace which router is compromised, how, and when it
        activates: forensics joins this ``scenario.ground_truth`` event
        against ``detector.suspect`` events to classify verdicts."""
        rec = recorder()
        if rec.active:
            planted = self.adversary_router if self.attack else None
            rec.event("scenario.ground_truth", self.network.sim.now,
                      flows={fid: list(path) for fid, path in
                             sorted(self.flow_paths.items())},
                      **ground_truth(self.spec, planted))

    def run(self) -> "AttackScenario":
        self.network.run(self.spec.end)
        return self


def _place(spec: ScenarioSpec, topo, paths: Dict[Tuple[str, str], List[str]]
           ) -> Tuple[str, Dict[str, Tuple[str, ...]]]:
    """The adversary's router, placed as ``resolve_ground_truth`` places
    it, and the flows' paths, ``f1`` … in order: between the
    ``endpoints`` option's pairs, or else spread over the sorted pairs
    routed across the adversary."""
    bad = spec.placement.resolve(topo, spec.seed, transit_candidates(topo))
    chosen = [tuple(ends) for ends in spec.option("endpoints", ())]
    if not chosen:
        pairs = sorted(ends for ends, path in paths.items()
                       if bad in path[1:-1])
        n_flows = min(spec.traffic.flows, len(pairs))
        chosen = [pairs[(i * len(pairs)) // n_flows] for i in range(n_flows)]
    return bad, {f"f{i + 1}": tuple(paths[ends])
                 for i, ends in enumerate(chosen)}


def _start(spec: ScenarioSpec, net: Network, bad: str,
           flow_paths: Dict[str, Tuple[str, ...]], start: float = 0.0,
           stagger: float = 0.0) -> Tuple[Dict[str, object],
                                          Optional[Compromise]]:
    """Start the flows along ``flow_paths`` and plant the adversary on
    ``bad``, dormant until ``spec.attack_at``; misroute and fabricate
    take their neighbors from the first flow routed across ``bad``."""
    flows: Dict[str, object] = {}
    for i, (flow_id, path) in enumerate(flow_paths.items()):
        if spec.traffic.kind == "tcp":
            flows[flow_id] = TCPFlow(net, path[0], path[-1], flow_id,
                                     start=start + 0.1 * (i + 1))
        else:
            flows[flow_id] = CBRSource(net, path[0], path[-1], flow_id,
                                       rate_bps=spec.traffic.rate_bps,
                                       duration=spec.traffic.duration,
                                       start=start + stagger * i)
    context = {}
    path = next((p for p in flow_paths.values() if bad in p[1:-1]), None)
    if path is not None:
        next_hop = path[path.index(bad) + 1]
        wrong = sorted(name for name in net.topology.neighbors(bad)
                       if name != next_hop)
        context = dict(wrong_neighbor=wrong[0] if wrong else None,
                       inject_neighbor=next_hop,
                       forged_src=path[0], forged_dst=path[-1])
    attack = spec.adversary.build(net, bad, sorted(flow_paths), spec.seed,
                                  **context)
    if attack is not None:
        attack.activate_between(spec.attack_at)
        net.routers[bad].compromise = attack
        if isinstance(attack, FabricateAttack):
            attack.start(spec.attack_at)
    return flows, attack


def _protocol_scenario(spec: ScenarioSpec) -> AttackScenario:
    """Π2 or Πk+2 over the flows' paths (every routed path with the
    ``monitor`` option ``"all"``) on static shortest-path routes."""
    net = Network(spec.topology.build(), seed=spec.seed)
    paths = install_static_routes(net)
    bad, flow_paths = _place(spec, net.topology, paths)
    policy = _POLICIES.get(spec.adversary.behavior, SummaryPolicy.CONTENT)
    max_delay = None
    if policy is SummaryPolicy.TIMELINESS:
        attack_delay = float(spec.adversary.option("delay", 0.05))
        max_delay = float(spec.option("max_delay", attack_delay / 2.0))
    protocol = arm_protocol(
        net, paths, spec.detector,
        config=PiConfig(max_delay=max_delay,
                        codec=str(spec.option("codec", PiConfig.codec))),
        tau=spec.tau, last_round=spec.rounds, policy=policy,
        over=(None if spec.option("monitor", "flows") == "all"
              else flow_paths.values()),
        sampling=float(spec.option("sampling", 1.0)))
    flows, attack = _start(spec, net, bad, flow_paths)
    return AttackScenario(spec, net, protocol, flows, flow_paths, bad, attack)


def _fatih_scenario(spec: ScenarioSpec) -> AttackScenario:
    """Fatih (§5.3) over link-state routing, monitoring from round
    ``first_round`` until the run ends; routers jitter by the
    ``proc_jitter`` option."""
    net = Network(spec.topology.build(), seed=spec.seed,
                  proc_jitter=float(spec.option("proc_jitter", 0.0)))
    routing = LinkStateRouting(net)
    routing.start()
    fatih = FatihSystem(net, routing, tau=spec.tau)
    fatih.start_monitoring(
        at=float(spec.option("first_round", 0)) * spec.tau,
        until=spec.end)
    # Routing converges on the static shortest paths.
    bad, flow_paths = _place(spec, net.topology,
                             compute_all_paths(net.topology))
    # The load starts once routing has converged, one flow every 10 ms.
    flows, attack = _start(spec, net, bad, flow_paths, FATIH_TRAFFIC_AT,
                           0.01)
    return AttackScenario(spec, net, fatih, flows, flow_paths, bad, attack)


_BUILDERS = {"pi2": _protocol_scenario, "pik2": _protocol_scenario,
             "fatih": _fatih_scenario, "chi": _bottleneck_scenario}


def build_scenario(
    spec: ScenarioSpec,
) -> Union[AttackScenario, BottleneckScenario]:
    """Build the scenario a spec describes, by its ``detector``: a
    :class:`BottleneckScenario` for χ, an :class:`AttackScenario` for
    Π2, Πk+2 and Fatih."""
    return _BUILDERS[spec.detector](spec)
