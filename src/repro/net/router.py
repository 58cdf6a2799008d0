"""Routers, output interfaces, and the assembled network.

The model follows §4.1: output-buffered routers joined by directional
links.  Each output interface owns a queue (droptail or RED) and a
transmitter that serializes packets at link bandwidth; a packet then takes
the link's propagation delay to reach the neighbour.

Three cross-cutting hooks make the rest of the library possible:

* **Monitor taps** observe receive/enqueue/transmit/drop/deliver events.
  The detection protocols' traffic summary generators are taps — they see
  exactly what the paper's in-kernel summary generator would see.  A
  receive, enqueue or transmit calls a tap only on the links its
  :meth:`MonitorTap.sites` names (by default every link, for each of
  those hooks it defines); drop, deliver and originate call every tap
  that defines them (see :meth:`Network.add_tap`).
* **Compromise hooks** let an adversary rewrite a router's forwarding
  behaviour (drop/modify/delay/misroute/fabricate), modelling a router
  whose *data plane* is subverted while the simulator stays honest about
  what actually happened (ground truth for evaluating detectors).
* **Control-plane channel** for protocol messages (summaries, alerts),
  with optional in-path interception by protocol-faulty routers.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from functools import lru_cache
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.net.events import Simulator
from repro.net.packet import Packet
from repro.obs import recorder
from repro.net.queues import DropReason, DropTailQueue
from repro.net.topology import Link, Topology


@lru_cache(maxsize=65536)
def _stable_hash(text: str) -> int:
    """Process-independent 32-bit hash (``hash()`` is salted per run).

    Cached: the ECMP path hashes the same ``src|dst|flow`` triple for
    every packet of a flow, so the sha256 runs once per flow instead of
    once per packet.
    """
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


#: The hooks a tap is called at per link (:meth:`MonitorTap.sites`).
_SITE_HOOKS = ("on_receive", "on_enqueue", "on_transmit")
#: The hooks a tap is called at network-wide.
_NETWORK_HOOKS = ("on_drop", "on_deliver", "on_originate")


class MonitorTap:
    """Base class for traffic observers.  Override what you need: a hook
    left as this class's no-op is never called.

    All times are simulation (true) time; protocols that model clock skew
    translate via :mod:`repro.dist.sync`.
    """

    def sites(self, network: "Network") -> Iterable[
            Tuple[str, str, str, Callable[..., None]]]:
        """The links this tap watches on ``network``: by default every
        link, for each receive/enqueue/transmit hook the tap defines.

        Each row is ``(hook, router, neighbour, fn)``: ``hook`` is
        ``on_receive`` (the neighbour upstream), ``on_enqueue`` or
        ``on_transmit`` (the neighbour downstream), and ``fn`` runs
        there with the hook's arguments.  The tap is called on no other
        link; its ``on_drop``/``on_deliver``/``on_originate`` are called
        everywhere.  A tap whose sites change calls
        :meth:`Network.reindex_taps`.  A duck-typed tap with no
        ``sites`` gets this default (``MonitorTap.sites(tap, network)``).
        """
        for hook in _SITE_HOOKS:
            method = _override(self, hook)
            if method is None:
                continue
            for router in network.routers.values():
                for nbr in router.interfaces:
                    yield ((hook, nbr, router.name, method)
                           if hook == "on_receive"
                           else (hook, router.name, nbr, method))

    def on_receive(self, router: "Router", from_nbr: str, packet: Packet,
                   time: float) -> None:
        """Packet fully arrived at ``router`` from ``from_nbr``."""

    def on_enqueue(self, router: "Router", out_nbr: str, packet: Packet,
                   time: float, occupancy: int) -> None:
        """Packet accepted into the output queue toward ``out_nbr``."""

    def on_transmit(self, router: "Router", out_nbr: str, packet: Packet,
                    time: float) -> None:
        """Last bit of packet left ``router`` toward ``out_nbr``."""

    def on_drop(self, router: "Router", out_nbr: Optional[str], packet: Packet,
                time: float, reason: DropReason, drop_prob: float) -> None:
        """Packet lost at ``router`` (queue loss, TTL, or malice)."""

    def on_deliver(self, router: "Router", packet: Packet, time: float) -> None:
        """Packet consumed at its destination router."""

    def on_originate(self, router: "Router", packet: Packet, time: float) -> None:
        """Packet injected into the network at its source router."""


def _override(tap: Any, hook: str) -> Optional[Callable[..., None]]:
    """``tap``'s bound ``hook`` method, or None where it has none or it
    is the :class:`MonitorTap` no-op (so a hook nobody overrides costs
    no call).  Duck-typed taps (``TraceTap``) need no base class."""
    method = getattr(tap, hook, None)
    if method is None or getattr(method, "__func__", None) is getattr(
            MonitorTap, hook):
        return None
    return method


# -- adversary interface ----------------------------------------------------

class ForwardAction:
    """What a compromised router decides to do with a transit packet.

    Immutable: :meth:`forward` and :meth:`drop` hand out one shared
    value each, so the verdict on an untouched packet allocates nothing.
    """

    FORWARD = "forward"
    DROP = "drop"

    def __init__(self, kind: str, packet: Optional[Packet] = None,
                 out_nbr: Optional[str] = None, delay: float = 0.0) -> None:
        # Plain attributes, not slots: ``delay`` is also a classmethod.
        self.__dict__.update(kind=kind, packet=packet, out_nbr=out_nbr,
                             delay=delay)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("ForwardAction is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("ForwardAction is immutable")

    @staticmethod
    def forward() -> "ForwardAction":
        return _FORWARD

    @staticmethod
    def drop() -> "ForwardAction":
        return _DROP

    @classmethod
    def modify(cls, packet: Packet) -> "ForwardAction":
        return cls(cls.FORWARD, packet=packet)

    @classmethod
    def misroute(cls, out_nbr: str) -> "ForwardAction":
        return cls(cls.FORWARD, out_nbr=out_nbr)

    @classmethod
    def delay(cls, seconds: float) -> "ForwardAction":
        return cls(cls.FORWARD, delay=seconds)


_FORWARD = ForwardAction(ForwardAction.FORWARD)
_DROP = ForwardAction(ForwardAction.DROP)


class OutputInterface:
    """One directed link's queue + transmitter at the sending router.

    ``enqueue_taps`` and ``transmit_taps`` are the callables its two
    hooks run, set by :meth:`Network.reindex_taps`.
    """

    def __init__(self, router: "Router", link: Link, queue) -> None:
        self.router = router
        self.link = link
        self.neighbor = link.dst
        self.queue = queue
        self.busy = False
        self.bytes_sent = 0
        self.packets_sent = 0
        self.enqueue_taps: List[Callable[..., None]] = []
        self.transmit_taps: List[Callable[..., None]] = []

    def enqueue(self, packet: Packet) -> bool:
        """Offer ``packet`` to the queue now; start sending if idle."""
        net = self.router.network
        now = net.sim.now
        accepted, reason, prob = self.queue.offer(packet, now)
        if not accepted:
            for on_drop in net.on_drop:
                on_drop(self.router, self.neighbor, packet, now, reason, prob)
            return False
        for on_enqueue in self.enqueue_taps:
            on_enqueue(self.router, self.neighbor, packet, now,
                       self.queue.occupancy)
        if not self.busy:
            self._start_transmission(now)
        return True

    def _start_transmission(self, now: float) -> None:
        packet = self.queue.pop(now)
        if packet is None:
            self.busy = False
            return
        self.busy = True
        tx_time = self.link.transmission_delay(packet.size)
        self.router.network.sim.schedule(
            tx_time, self._finish_transmission, packet
        )

    def _finish_transmission(self, packet: Packet) -> None:
        net = self.router.network
        now = net.sim.now
        self.bytes_sent += packet.size
        self.packets_sent += 1
        for on_transmit in self.transmit_taps:
            on_transmit(self.router, self.neighbor, packet, now)
        if self.link.up:
            # After the propagation delay the neighbour receives it.
            net.sim.schedule(self.link.delay,
                             net.routers[self.neighbor].receive, packet,
                             self.router.name)
        # On a dead link the bits fall on the floor; the control plane
        # notices via missed hellos, not via any magic signal.
        # Immediately begin the next packet, if any.
        self._start_transmission(now)


class Router:
    """An output-buffered router."""

    def __init__(
        self,
        name: str,
        network: "Network",
        proc_jitter: float = 0.0,
        seed: int = 0,
    ) -> None:
        self.name = name
        self.network = network
        self.interfaces: Dict[str, OutputInterface] = {}
        # dst -> list of next hops (ECMP); chosen deterministically by flow hash.
        self.forwarding_table: Dict[str, List[str]] = {}
        # (src, dst) -> next hops; the policy-based routing of §5.3.1 that
        # lets a router avoid suspected path-segments it sits inside.
        self.policy_table: Dict[Tuple[str, str], List[str]] = {}
        self.compromise = None  # type: Optional[Any]
        self.proc_jitter = proc_jitter
        # seed=0 reproduces the historical per-name stream exactly; any
        # other seed perturbs every router's jitter stream deterministically.
        self._rng = random.Random(_stable_hash(name) ^ (seed * 0x9E3779B97F4A7C15))
        # Local "applications": flow_id -> callback(packet, time)
        self.local_flows: Dict[str, Callable[[Packet, float], None]] = {}
        self.delivered = 0
        self.forwarded = 0
        # upstream neighbour -> what a receive from it runs: one entry
        # per link into this router, set by Network.reindex_taps.
        self.receive_taps: Dict[str, List[Callable[..., None]]] = {}

    # -- wiring ------------------------------------------------------------
    def add_interface(self, link: Link, queue) -> None:
        self.interfaces[link.dst] = OutputInterface(self, link, queue)

    def neighbors(self) -> List[str]:
        return list(self.interfaces)

    def register_flow(self, flow_id: str,
                      handler: Callable[[Packet, float], None]) -> None:
        self.local_flows[flow_id] = handler

    # -- forwarding --------------------------------------------------------
    def next_hop(self, packet: Packet) -> Optional[str]:
        hops = self.policy_table.get((packet.src, packet.dst))
        if not hops:
            hops = self.forwarding_table.get(packet.dst)
        if not hops:
            return None
        if len(hops) == 1:
            return hops[0]
        # Deterministic ECMP hash on flow identity (§4.1: predictable paths).
        idx = _stable_hash(f"{packet.src}|{packet.dst}|{packet.flow_id}")
        return hops[idx % len(hops)]

    def originate(self, packet: Packet) -> None:
        """Inject a locally sourced packet (terminal router assumed good)."""
        now = self.network.sim.now
        packet.created_at = now
        packet.hops = (self.name,)
        for on_originate in self.network.on_originate:
            on_originate(self, packet, now)
        if packet.dst == self.name:
            self._deliver(packet, now)
            return
        self._route(packet, incoming=None, allow_compromise=False)

    def receive(self, packet: Packet, from_nbr: str) -> None:
        now = self.network.sim.now
        for on_receive in self.receive_taps[from_nbr]:
            on_receive(self, from_nbr, packet, now)
        if packet.dst == self.name:
            self._deliver(packet, now)
            return
        self._route(packet, incoming=from_nbr, allow_compromise=True)

    def _deliver(self, packet: Packet, now: float) -> None:
        self.delivered += 1
        for on_deliver in self.network.on_deliver:
            on_deliver(self, packet, now)
        handler = self.local_flows.get(packet.flow_id)
        if handler is not None:
            handler(packet, now)

    def _route(self, packet: Packet, incoming: Optional[str],
               allow_compromise: bool) -> None:
        now = self.network.sim.now
        out_nbr = self.next_hop(packet)
        if out_nbr is None:
            for on_drop in self.network.on_drop:
                on_drop(self, None, packet, now, DropReason.CONGESTION, 1.0)
            return
        if packet.expired:
            for on_drop in self.network.on_drop:
                on_drop(self, out_nbr, packet, now, DropReason.TTL_EXPIRED,
                        1.0)
            return

        if allow_compromise and self.compromise is not None:
            iface = self.interfaces.get(out_nbr)
            action = self.compromise.on_forward(
                self, packet, incoming, out_nbr, iface
            )
            if action.kind == ForwardAction.DROP:
                for on_drop in self.network.on_drop:
                    on_drop(self, out_nbr, packet, now, DropReason.MALICIOUS,
                            0.0)
                return
            if action.packet is not None:
                packet = action.packet
            if action.out_nbr is not None:
                if action.out_nbr != out_nbr:
                    rec = recorder()
                    if rec.active:
                        rec.metrics.counter(
                            "repro.net.pkt.misrouted").inc()
                        rec.event(
                            "net.misroute", now,
                            router=self.name,
                            expected=out_nbr,
                            out_nbr=action.out_nbr,
                            flow=packet.flow_id,
                            src=packet.src,
                            dst=packet.dst,
                        )
                out_nbr = action.out_nbr
            if action.delay > 0:
                self.network.sim.schedule(
                    action.delay, self._enqueue_toward, packet, out_nbr
                )
                return

        self._enqueue_toward(packet, out_nbr)

    def _enqueue_toward(self, packet: Packet, out_nbr: str) -> None:
        now = self.network.sim.now
        packet.hop(self.name)
        self.forwarded += 1
        iface = self.interfaces.get(out_nbr)
        if iface is None:
            for on_drop in self.network.on_drop:
                on_drop(self, out_nbr, packet, now, DropReason.CONGESTION, 1.0)
            return
        mtu = iface.link.mtu
        if mtu is not None and packet.size > mtu:
            # In-network fragmentation (§7.4.4): split and enqueue each
            # piece.  Fragments carry fresh identities, so any upstream
            # fingerprint of the original packet is now unmatchable.
            for fragment in packet.fragment(mtu, self.network.packet_ids):
                if self.proc_jitter > 0:
                    self.network.sim.schedule(
                        self.proc_jitter * self._rng.random(), iface.enqueue,
                        fragment)
                else:
                    iface.enqueue(fragment)
            return
        if self.proc_jitter > 0:
            # == rng.uniform(0.0, proc_jitter), bit for bit, one call less.
            self.network.sim.schedule(self.proc_jitter * self._rng.random(),
                                      iface.enqueue, packet)
            return
        iface.enqueue(packet)

    def inject_fabricated(self, packet: Packet, out_nbr: str) -> None:
        """Adversary-only: push a fabricated packet into an output queue."""
        packet.fabricated_by = self.name
        rec = recorder()
        if rec.active:
            rec.metrics.counter("repro.net.pkt.fabricated").inc()
            rec.event("net.fabricate", self.network.sim.now,
                      router=self.name, out_nbr=out_nbr,
                      flow=packet.flow_id, src=packet.src, dst=packet.dst)
        iface = self.interfaces.get(out_nbr)
        if iface is not None:
            iface.enqueue(packet)


class Network:
    """The assembled simulation: topology + routers + event engine."""

    def __init__(
        self,
        topology: Topology,
        sim: Optional[Simulator] = None,
        queue_factory: Optional[Callable[[Link], Any]] = None,
        proc_jitter: float = 0.0,
        control_delay: float = 0.002,
        seed: int = 0,
    ) -> None:
        self.topology = topology
        self.sim = sim or Simulator()
        # Packet uids, numbered per network (see repro.net.packet).
        self.packet_ids = itertools.count(1)
        # RTT probe flow numbers, per network (see repro.core.fatih).
        self.rtt_flow_ids = itertools.count(1)
        # Change only through add_tap/remove_tap, which re-index it.
        self.taps: List[MonitorTap] = []
        rec = recorder()
        if rec.active:
            # Duck-typed MonitorTap; attach-only, so a disabled recorder
            # adds nothing to the per-packet tap loops.
            from repro.obs.trace import TraceTap
            self.taps.append(TraceTap(rec))
        self.routers: Dict[str, Router] = {}
        self.control_delay = control_delay
        self.seed = seed
        if queue_factory is None:
            queue_factory = lambda link: DropTailQueue(link.queue_limit)
        for name in topology.routers:
            self.routers[name] = Router(name, self, proc_jitter=proc_jitter,
                                        seed=seed)
        for link in topology.links():
            self.routers[link.src].add_interface(link, queue_factory(link))
        self.reindex_taps()

    def router(self, name: str) -> Router:
        return self.routers[name]

    def add_tap(self, tap: MonitorTap) -> None:
        """Attach ``tap`` after the others: it sees the next event."""
        self.taps.append(tap)
        self.reindex_taps()

    def remove_tap(self, tap: MonitorTap) -> None:
        self.taps.remove(tap)
        self.reindex_taps()

    def reindex_taps(self) -> None:
        """Rebuild what each hook calls, in ``taps`` order.

        ``on_drop``/``on_deliver``/``on_originate`` list every tap that
        defines the hook.  Each interface's ``enqueue_taps`` and
        ``transmit_taps``, and each router's ``receive_taps`` entry, list
        the callables the taps' :meth:`MonitorTap.sites` name there.
        """
        for hook in _NETWORK_HOOKS:
            methods = (_override(tap, hook) for tap in self.taps)
            setattr(self, hook, [m for m in methods if m is not None])
        at: Dict[Tuple[str, str, str], List[Callable[..., None]]] = {}
        for router in self.routers.values():
            router.receive_taps = {}
        for router in self.routers.values():
            for nbr, iface in router.interfaces.items():
                iface.enqueue_taps = at["on_enqueue", router.name, nbr] = []
                iface.transmit_taps = at["on_transmit", router.name, nbr] = []
                self.routers[nbr].receive_taps[router.name] = at[
                    "on_receive", nbr, router.name] = []
        for tap in self.taps:
            rows = (tap.sites(self) if hasattr(tap, "sites")
                    else MonitorTap.sites(tap, self))
            for hook, name, nbr, fn in rows:
                here = at.get((hook, name, nbr))
                if here is None:
                    raise ValueError(f"no {hook} site at {name} "
                                     f"(neighbour {nbr})")
                here.append(fn)

    # -- link state management ----------------------------------------------
    def fail_link(self, a: str, b: str, bidirectional: bool = True) -> None:
        """Take a link down (fiber cut).  In-queue packets are lost."""
        self.topology.link(a, b).up = False
        if bidirectional:
            self.topology.link(b, a).up = False
        self.topology.bump_version()

    def restore_link(self, a: str, b: str, bidirectional: bool = True) -> None:
        self.topology.link(a, b).up = True
        if bidirectional:
            self.topology.link(b, a).up = True
        self.topology.bump_version()

    # -- control plane -----------------------------------------------------
    def send_control(
        self,
        src: str,
        dst: str,
        payload: Any,
        on_deliver: Callable[[Any], None],
        via_path: Optional[Sequence[str]] = None,
    ) -> None:
        """Deliver a protocol message from ``src`` to ``dst``.

        When ``via_path`` is given, every *intermediate* compromised router
        on the path gets a chance to intercept (drop or alter) the message
        — this models a protocol-faulty router suppressing the traffic
        summaries of Πk+2 that are exchanged through the monitored
        path-segment itself (§5.2).  Without ``via_path`` the message is
        delivered over an idealized authenticated channel (as Π2's
        consensus assumes sufficient path diversity).
        """
        message = payload
        if via_path is not None:
            for hop in via_path[1:-1]:
                comp = self.routers[hop].compromise
                if comp is None:
                    continue
                message = comp.on_control(self.routers[hop], src, dst, message)
                if message is None:
                    return  # suppressed in transit
        hops = len(via_path) - 1 if via_path else 1
        self.sim.schedule(self.control_delay * max(1, hops),
                          on_deliver, message, )

    # -- convenience -------------------------------------------------------
    def run(self, until: float) -> None:
        self.sim.run(until=until)
