"""Traffic summaries: info(r, π, τ).

A summary is what one router remembers about the traffic it forwarded
along a monitored path-segment during a validation round.  The four
conservation policies of §2.4.1 need increasingly rich summaries:

==================  ==========================================
policy              summary content
==================  ==========================================
conservation of     packet & byte counters
flow
conservation of     set of packet fingerprints (+ counters)
content
conservation of     *ordered* list of fingerprints
order
conservation of     fingerprints with timestamps
timeliness
==================  ==========================================

The :class:`SegmentMonitor` tap plays the role of Fatih's in-kernel
Traffic Summary Generator (§5.3.1): it watches transmit/receive events,
attributes packets to monitored path-segments using the routing-derived
:class:`PathOracle`, and accumulates per-round :class:`SummaryBuilder`s.

**Round attribution** (``SegmentMonitor._round_for``, the one place it is
decided).  A member files a packet under the round its own clock reads
at one of two instants:

* ``sent`` — the moment it transmits the packet toward the next hop;
* ``received`` — the moment the packet *left the upstream router*
  (arrival time minus the known link propagation delay).

So both ends of one link file a packet under the same round, and the
*link* check (upstream ``sent(r)`` against downstream ``received(r)``)
disagrees only by clock skew, which the TV threshold covers.  The
*transit* check compares a member's own ``received(r)`` with its
``sent(r)``, two different instants: a packet whose queueing and
transmission straddle a round boundary is missing in r and extra in
r+1.  That is an open defect (ROADMAP item 1), not TV slack.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional, Set,
                    Tuple)

from repro.crypto.fingerprint import FingerprintSampler, fingerprint
from repro.crypto.signatures import encoded_once
from repro.dist.sync import ClockModel, RoundSchedule
from repro.net import MonitorTap, Network, Packet, Router

PathSegment = Tuple[str, ...]
#: (direction, router, neighbor): one side of a link some segment watches.
WatchedLink = Tuple[str, str, str]


class SummaryPolicy(enum.Enum):
    """Which conservation-of-traffic property a summary supports."""

    FLOW = "flow"
    CONTENT = "content"
    ORDER = "order"
    TIMELINESS = "timeliness"


@encoded_once
@dataclass(frozen=True)
class TrafficSummary:
    """Immutable info(r, π, τ) for one direction of observation.

    Every field holds an immutable value (sets become ``frozenset``,
    sequences ``tuple``), so the signature encoding it keeps
    (:func:`~repro.crypto.signatures.encoded_once`) stays its encoding.
    """

    router: str
    segment: PathSegment
    round_index: int
    direction: str  # "sent" (transmit toward next hop) | "received"
    policy: SummaryPolicy
    count: int
    byte_count: int
    fingerprints: Optional[FrozenSet[int]] = None
    ordered: Optional[Tuple[int, ...]] = None
    timestamps: Optional[Tuple[Tuple[int, float], ...]] = None

    def __post_init__(self) -> None:
        # Same canonical bytes either way: a set and a frozenset both
        # encode as ``E(``, a list and a tuple as ``L(``.
        if type(self.segment) is not tuple:
            object.__setattr__(self, "segment", tuple(self.segment))
        if (self.fingerprints is not None
                and type(self.fingerprints) is not frozenset):
            object.__setattr__(self, "fingerprints",
                               frozenset(self.fingerprints))
        if self.ordered is not None and type(self.ordered) is not tuple:
            object.__setattr__(self, "ordered", tuple(self.ordered))
        if self.timestamps is not None:
            object.__setattr__(self, "timestamps",
                               tuple([tuple(pair) for pair in self.timestamps]))


class SummaryBuilder:
    """Accumulates one router's observations for one (segment, round)."""

    def __init__(self, router: str, segment: PathSegment, round_index: int,
                 direction: str, policy: SummaryPolicy) -> None:
        self.router = router
        self.segment = segment
        self.round_index = round_index
        self.direction = direction
        self.policy = policy
        self.count = 0
        self.byte_count = 0
        self._fingerprints: Set[int] = set()
        self._ordered: List[int] = []
        self._timestamps: List[Tuple[int, float]] = []
        # What this policy keeps per packet, decided once (§2.4.1 table).
        self._keeps_set = policy is not SummaryPolicy.FLOW
        self._keeps_order = policy in (SummaryPolicy.ORDER,
                                       SummaryPolicy.TIMELINESS)
        self._keeps_times = policy is SummaryPolicy.TIMELINESS

    def observe(self, fp: int, size: int, when: float) -> None:
        self.count += 1
        self.byte_count += size
        if self._keeps_set:
            self._fingerprints.add(fp)
        if self._keeps_order:
            self._ordered.append(fp)
        if self._keeps_times:
            self._timestamps.append((fp, when))

    def freeze(self) -> TrafficSummary:
        return TrafficSummary(
            router=self.router,
            segment=self.segment,
            round_index=self.round_index,
            direction=self.direction,
            policy=self.policy,
            count=self.count,
            byte_count=self.byte_count,
            fingerprints=(frozenset(self._fingerprints)
                          if self._keeps_set else None),
            ordered=tuple(self._ordered) if self._keeps_order else None,
            timestamps=(tuple(self._timestamps)
                        if self._keeps_times else None),
        )

    def state_size(self) -> int:
        """Rough per-round state footprint in 'units' (for overhead benches)."""
        if self.policy is SummaryPolicy.FLOW:
            return 2  # packet + byte counter
        if self.policy is SummaryPolicy.CONTENT:
            return len(self._fingerprints)
        if self.policy is SummaryPolicy.ORDER:
            return len(self._ordered)
        return 2 * len(self._timestamps)


def _run_at(path: Tuple[str, ...], segment: PathSegment) -> Optional[int]:
    """First index of ``segment`` as a contiguous run of ``path``, or None."""
    seg_len = len(segment)
    for i in range(len(path) - seg_len + 1):
        if path[i:i + seg_len] == segment:
            return i
    return None


class PathOracle:
    """Predicts the forwarding path of a packet (§4.1).

    With link-state routing and deterministic ECMP hashing, any router can
    compute the stable-state path a packet will take from its own tables.
    The oracle is built from the same path map the routing layer installed
    so monitors and forwarding agree by construction.
    """

    def __init__(self, paths: Dict[Tuple[str, str], List[str]]) -> None:
        self._paths = {pair: tuple(path) for pair, path in paths.items()}

    def path(self, src: str, dst: str) -> Optional[Tuple[str, ...]]:
        return self._paths.get((src, dst))

    def packet_path(self, packet: Packet) -> Optional[Tuple[str, ...]]:
        return self._paths.get((packet.src, packet.dst))

    def traverses(self, packet: Packet, segment: PathSegment) -> Optional[int]:
        """Index of ``segment`` inside the packet's path, or None."""
        path = self.packet_path(packet)
        return None if path is None else _run_at(path, segment)

    def next_hop_after(self, packet: Packet, router: str) -> Optional[str]:
        path = self.packet_path(packet)
        if path is None or router not in path:
            return None
        idx = path.index(router)
        if idx + 1 >= len(path):
            return None
        return path[idx + 1]


#: uid of :meth:`EcmpPathOracle.path`'s probe; networks number from 1.
_PROBE_UID = 0


class EcmpPathOracle(PathOracle):
    """Path prediction that honours ECMP and policy routing (§7.4.1).

    §4.1: with deterministic ECMP hashing "a router can predict the path
    that a packet will take in the stable state based on its own routing
    tables and the hash functions."  This oracle does exactly that: it
    walks the live routers' ``next_hop`` decision per packet (which folds
    in the flow-hash ECMP choice and any policy entries), so monitors
    stay correct when the forwarding tables hold multiple next hops.

    Predictions are memoized per (src, dst, flow_id); call
    :meth:`invalidate` after a routing change.
    """

    def __init__(self, network) -> None:
        super().__init__({})
        self.network = network
        self._cache: Dict[Tuple[str, str, str], Optional[Tuple[str, ...]]] = {}

    def invalidate(self) -> None:
        self._cache.clear()

    def packet_path(self, packet: Packet) -> Optional[Tuple[str, ...]]:
        key = (packet.src, packet.dst, packet.flow_id)
        if key in self._cache:
            return self._cache[key]
        path = self._trace(packet)
        self._cache[key] = path
        return path

    def path(self, src: str, dst: str) -> Optional[Tuple[str, ...]]:
        # Flow-less prediction: trace with an anonymous flow.  The probe
        # never enters the network, so it takes no uid from it (a query
        # must not renumber the run's packets): ``_trace`` reads only
        # src, dst and flow.
        probe = Packet(src=src, dst=dst, flow_id="", uid=_PROBE_UID)
        return self._trace(probe)

    def _trace(self, packet: Packet) -> Optional[Tuple[str, ...]]:
        here = packet.src
        hops = [here]
        limit = len(self.network.routers) + 1
        while here != packet.dst:
            router = self.network.routers.get(here)
            if router is None:
                return None
            nxt = router.next_hop(packet)
            if nxt is None or nxt in hops:
                return None  # no route or loop
            hops.append(nxt)
            here = nxt
            if len(hops) > limit:
                return None
        return tuple(hops)


#: round -> SummaryBuilder, for one (segment, member, direction).
_Rounds = Dict[int, SummaryBuilder]
#: What one record on a watched link is filed under, per segment.
_Filing = Tuple[PathSegment, Optional[FingerprintSampler], _Rounds]


class _Watched:
    """One side of a link some segment watches, resolved once: its
    direction, its router, the delay a receive is dated back by, and its
    filings per packet path."""

    __slots__ = ("direction", "router", "delay", "watches", "filings")

    def __init__(self, direction: str, router: str, delay: float) -> None:
        self.direction = direction
        self.router = router
        self.delay = delay
        #: (segment, this member's index in it) for every segment watched.
        self.watches: List[Tuple[PathSegment, int]] = []
        #: packet path -> the filings a packet on that path makes here.
        self.filings: Dict[Tuple[str, ...], Tuple[_Filing, ...]] = {}


class SegmentMonitor(MonitorTap):
    """Per-router traffic summary generator for a set of path-segments.

    For each monitored segment π = ⟨r1..rx⟩ and each member rᵢ the
    monitor records:

    * ``sent`` — packets rᵢ transmitted to rᵢ₊₁ that follow π (i < x);
    * ``received`` — packets rᵢ received from rᵢ₋₁ that follow π (i > 0).

    Only routers named in ``monitors`` actually record (Π2 needs every
    member; Πk+2 only the two ends).  A :class:`FingerprintSampler` may
    restrict recording to an agreed hash range (§5.2.1); a
    :class:`ClockModel` lets tests inject bounded clock skew into round
    attribution.  The network calls it only on the links it watches
    (:meth:`sites`).
    """

    def __init__(
        self,
        network: Network,
        oracle: PathOracle,
        schedule: RoundSchedule,
        policy: SummaryPolicy = SummaryPolicy.CONTENT,
        fingerprint_key: bytes = b"",
        clock: Optional[ClockModel] = None,
        samplers: Optional[Dict[PathSegment, FingerprintSampler]] = None,
    ) -> None:
        self.network = network
        self.oracle = oracle
        self.schedule = schedule
        self.policy = policy
        self.fingerprint_key = fingerprint_key
        self.clock = clock or ClockModel(epsilon=0.0)
        self.samplers = samplers or {}
        # segment -> the members that record it
        self._monitors: Dict[PathSegment, Set[str]] = {}
        self._links: Dict[WatchedLink, _Watched] = {}
        # (segment, member, direction) -> its rounds; a filing holds the
        # same dict, so a record never builds this key.
        self._rounds: Dict[Tuple[PathSegment, str, str], _Rounds] = {}

    # -- configuration -------------------------------------------------------
    def watch_segment(self, segment: PathSegment,
                      monitors: Optional[Iterable[str]] = None) -> None:
        """Watch ``segment`` at ``monitors`` (default: every member),
        replacing any earlier watch of it."""
        segment = tuple(segment)
        if len(segment) < 2:
            raise ValueError("a path-segment has at least two routers")
        members = set(monitors) if monitors is not None else set(segment)
        self._monitors[segment] = members
        for key, link in list(self._links.items()):
            link.watches = [w for w in link.watches if w[0] != segment]
            if not link.watches:
                del self._links[key]
        for i, router in enumerate(segment):
            if router not in members:
                continue
            if i + 1 < len(segment):
                self._watch(("sent", router, segment[i + 1]), 0.0, segment, i)
            if i > 0:
                delay = self.network.topology.link(segment[i - 1], router).delay
                self._watch(("received", router, segment[i - 1]), delay,
                            segment, i)
        for link in self._links.values():
            link.filings.clear()
        if self in self.network.taps:
            self.network.reindex_taps()

    def _watch(self, key: WatchedLink, delay: float, segment: PathSegment,
               pos: int) -> None:
        direction, router, _ = key
        link = self._links.get(key)
        if link is None:
            link = self._links[key] = _Watched(direction, router, delay)
        link.watches.append((segment, pos))
        self._rounds.setdefault((segment, router, direction), {})

    @property
    def segments(self) -> Set[PathSegment]:
        return set(self._monitors)

    def sites(self, network: Network) -> List[
            Tuple[str, str, str, Callable[..., None]]]:
        """Each watched link with :meth:`_record` bound to it."""
        return [("on_transmit" if direction == "sent" else "on_receive",
                 router, nbr, partial(self._record, link))
                for (direction, router, nbr), link in self._links.items()]

    # -- observation ----------------------------------------------------------
    def _filings(self, link: _Watched,
                 path: Tuple[str, ...]) -> Tuple[_Filing, ...]:
        """What a packet on ``path`` files at ``link``: one filing per
        watched segment it is following there.  Worked out once per
        distinct path crossing the link; a reroute shows up as a
        different path and therefore a different key."""
        filings = []
        for segment, pos in link.watches:
            idx = _run_at(path, segment)
            # The packet must actually be at our position of the segment.
            if idx is not None and path[idx + pos] == link.router:
                filings.append((segment, self.samplers.get(segment),
                                self._rounds[(segment, link.router,
                                              link.direction)]))
        return tuple(filings)

    def _round_for(self, link: _Watched, packet: Packet,
                   time: float) -> Tuple[float, int]:
        """``(local time, round)`` a record of ``packet`` is filed under:
        the one attribution rule.  A transmit counts at its instant, a
        receive at ``time - link delay``, each on the member's own clock
        (``packet`` is for a rule that reads a time the packet carries)."""
        local = self.clock.local_time(link.router, time - link.delay)
        return local, self.schedule.round_of(local)

    def _record(self, link: _Watched, router: Router, nbr: str,
                packet: Packet, time: float) -> None:
        """File ``packet``, seen on ``link`` at ``time``, under every
        segment it is following there.

        The round and the fingerprint belong to (router, packet, instant),
        not to a segment: one clock read, one fingerprint however many
        segments share the link — and none if every sampler declines.
        """
        path = self.oracle.packet_path(packet)
        if path is None:
            return
        filings = link.filings.get(path)
        if filings is None:
            filings = link.filings[path] = self._filings(link, path)
        if not filings:
            return
        local, round_index = self._round_for(link, packet, time)
        fp = None
        for segment, sampler, rounds in filings:
            if sampler is not None and not sampler.sampled(packet):
                continue
            builder = rounds.get(round_index)
            if builder is None:
                builder = rounds[round_index] = SummaryBuilder(
                    link.router, segment, round_index, link.direction,
                    self.policy)
            if fp is None:
                fp = fingerprint(packet, self.fingerprint_key)
            builder.observe(fp, packet.size, local)

    # -- retrieval -------------------------------------------------------------
    def summary(self, segment: PathSegment, router: str, direction: str,
                round_index: int) -> TrafficSummary:
        segment = tuple(segment)
        builder = self._rounds.get((segment, router, direction), {}).get(
            round_index)
        if builder is None:
            builder = SummaryBuilder(router, segment, round_index,
                                     direction, self.policy)
        return builder.freeze()

    def segment_summaries(self, segment: PathSegment,
                          round_index: int) -> Dict[Tuple[str, str], TrafficSummary]:
        """All members' summaries for one round: (router, direction) keyed."""
        segment = tuple(segment)
        out: Dict[Tuple[str, str], TrafficSummary] = {}
        for i, router in enumerate(segment):
            if router not in self._monitors.get(segment, ()):
                continue
            if i + 1 < len(segment):
                out[(router, "sent")] = self.summary(segment, router, "sent",
                                                     round_index)
            if i > 0:
                out[(router, "received")] = self.summary(
                    segment, router, "received", round_index
                )
        return out

    def state_units(self, router: str) -> int:
        """Current summary state held at ``router`` (overhead benches)."""
        return sum(builder.state_size()
                   for (_, member, _), rounds in self._rounds.items()
                   if member == router for builder in rounds.values())

    def drop_rounds_before(self, round_index: int) -> None:
        """Forget state for rounds older than ``round_index`` (GC)."""
        for rounds in self._rounds.values():
            for stale in [r for r in rounds if r < round_index]:
                del rounds[stale]
