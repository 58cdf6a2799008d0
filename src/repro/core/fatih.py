"""Fatih — the prototype system of §5.3.

Fatih glues the pieces of Fig 5.5 together on a live network:

* a **coordinator** per system that decides which path-segments to
  monitor (k = 1: every 3-segment, reflecting the realistic attacker
  who controls isolated routers);
* **traffic validators** — a :class:`ProtocolPiK2` instance whose
  summaries come from the in-kernel-style :class:`SegmentMonitor`;
* the **link-state routing daemon** (:class:`LinkStateRouting`) which
  floods alerts and recomputes tables after its SPF delay + hold timers,
  excluding suspected path-segments via policy routing;
* **NTP-grade clocks** via :class:`ClockModel`.

When routing changes (post-detection), the coordinator rebuilds its path
oracle and monitored-segment set — the paper's "coordinator is kept
abreast of routing changes" (§5.3.1).

:class:`RTTMonitor` provides the measurement stream plotted in Fig 5.7.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.detector import PiConfig, Suspicion
from repro.core.pik2 import ProtocolPiK2
from repro.core.segments import arm_protocol
from repro.core.summaries import SummaryPolicy
from repro.dist.sync import ClockModel
from repro.net import LinkStateRouting, Network, Packet, PacketKind
from repro.net.routing import compute_all_paths

#: NTP-grade clocks (§5.3): each router is off true time by at most 2 ms.
_CLOCK = ClockModel(epsilon=0.002)

#: §5.3's validators: Πk+2 over every 3-segment (k = 1), two benign
#: losses allowed per segment-round, 0.3 s for packets in flight, and
#: Πk+2's own µ of 1 s.
_PIK2 = PiConfig(k=1, threshold=2, settle_delay=0.3)
#: Fatih validates conservation of content.
_POLICY = SummaryPolicy.CONTENT


class FatihSystem:
    """Coordinator + validators + routing response on one network.

    ``tau`` is the validation round length (§5.3.1: 5 s) and
    ``rebuild_grace`` how long to wait for the reroute after a detection
    before re-arming the monitors.
    """

    def __init__(
        self,
        network: Network,
        routing: LinkStateRouting,
        *,
        tau: float = 5.0,
        rebuild_grace: float = 20.0,
    ) -> None:
        self.network = network
        self.routing = routing
        self.tau = tau
        self.rebuild_grace = rebuild_grace
        self.protocol: Optional[ProtocolPiK2] = None
        self.suspicions: List[Suspicion] = []
        self.detection_times: List[Tuple[float, Suspicion]] = []
        self._rebuild_pending = False
        self._monitor_until: Optional[float] = None

    # -- lifecycle --------------------------------------------------------------
    def start_monitoring(self, at: float, until: float) -> None:
        """Arm validators from ``at`` (post-convergence) to ``until``."""
        self._monitor_until = until
        self.network.sim.schedule_at(at, self._arm, at, until)

    def _arm(self, start: float, until: float) -> None:
        # The paths avoid every suspected segment, so none of them is
        # monitored again.
        paths = compute_all_paths(self.network.topology,
                                  self.suspected_segments())
        protocol = arm_protocol(
            self.network, paths, "pik2", config=_PIK2, tau=self.tau,
            last_round=max(0, int((until - start) / self.tau) - 1),
            policy=_POLICY, start=start, clock=_CLOCK)
        protocol.on_suspicion = self._on_suspicion
        # A stopped instance takes its own monitor off the network once
        # its last conclusions have read it.
        self.protocol = protocol

    # -- detection & response ------------------------------------------------------
    def _on_suspicion(self, suspicion: Suspicion) -> None:
        now = self.network.sim.now
        self.suspicions.append(suspicion)
        self.detection_times.append((now, suspicion))
        # Alert the routing daemon (flooded network-wide, Fig 5.5).
        self.routing.announce_suspicion(
            suspicion.suspected_by, suspicion.segment, suspicion.interval
        )
        # The response is about to reroute traffic, so this protocol
        # instance's oracle is stale: disarm future rounds and re-arm a
        # fresh instance against the post-response topology.
        if self.protocol is not None:
            self.protocol.stop()
        if not self._rebuild_pending and self._monitor_until is not None:
            self._rebuild_pending = True
            restart = now + self.rebuild_grace
            if restart < self._monitor_until:
                self.network.sim.schedule_at(restart, self._rearm, restart)

    def _rearm(self, start: float) -> None:
        self._rebuild_pending = False
        self._arm(start, self._monitor_until or start)

    # -- reporting --------------------------------------------------------------------
    def first_detection_time(self) -> Optional[float]:
        return self.detection_times[0][0] if self.detection_times else None

    def suspected_segments(self) -> Set[Tuple[str, ...]]:
        return {tuple(s.segment) for s in self.suspicions}


class RTTMonitor:
    """Round-trip probes between two routers (the Fig 5.7 latency trace).

    Probe flows are named ``rtt-<n>``, numbered per network: a flow id is
    part of every probe's fingerprint, so it must not depend on what else
    ran in the process.
    """

    def __init__(self, network: Network, src: str, dst: str,
                 interval: float = 1.0, start: float = 0.0,
                 stop: Optional[float] = None) -> None:
        self.network = network
        self.src = src
        self.dst = dst
        self.interval = interval
        self.stop = stop
        self.flow_id = f"rtt-{next(network.rtt_flow_ids)}"
        self.samples: List[Tuple[float, float]] = []  # (send time, rtt)
        self.lost = 0
        self._outstanding: Dict[int, float] = {}
        self._seq = 0
        network.routers[dst].register_flow(self.flow_id, self._echo)
        network.routers[src].register_flow(self.flow_id + ":back", self._pong)
        network.sim.schedule_at(start, self._probe)

    def _probe(self) -> None:
        now = self.network.sim.now
        if self.stop is not None and now >= self.stop:
            return
        seq = self._seq
        self._seq += 1
        self._outstanding[seq] = now
        probe = Packet(src=self.src, dst=self.dst, size=100,
                       kind=PacketKind.PROBE, flow_id=self.flow_id, seq=seq,
                       payload=b"ping", uid=next(self.network.packet_ids))
        self.network.routers[self.src].originate(probe)
        # Probes unanswered after 5 intervals count as lost.
        self.network.sim.schedule(5 * self.interval, self._expire, seq)
        self.network.sim.schedule(self.interval, self._probe)

    def _echo(self, packet: Packet, now: float) -> None:
        pong = Packet(src=self.dst, dst=self.src, size=100,
                      kind=PacketKind.PROBE,
                      flow_id=self.flow_id + ":back", seq=packet.seq,
                      payload=b"pong", uid=next(self.network.packet_ids))
        self.network.routers[self.dst].originate(pong)

    def _pong(self, packet: Packet, now: float) -> None:
        sent = self._outstanding.pop(packet.seq, None)
        if sent is not None:
            self.samples.append((sent, now - sent))

    def _expire(self, seq: int) -> None:
        if self._outstanding.pop(seq, None) is not None:
            self.lost += 1

    def mean_rtt(self, since: float = 0.0, until: float = float("inf")) -> Optional[float]:
        window = [rtt for t, rtt in self.samples if since <= t < until]
        if not window:
            return None
        return sum(window) / len(window)
