"""Path-segment enumeration and the monitored sets P_r (§5.1, §5.2).

Under AdjacentFault(k), a protocol must monitor segments long enough that
any run of ≤k faulty routers is flanked by correct ones — length k+2.

* Π2: every router monitors **all** (k+2)-segments it belongs to, plus
  shorter x-segments (3 ≤ x < k+2) whose ends are the path's terminal
  routers (whole short paths).  |P_r| drives Fig 5.2.
* Πk+2: a router monitors the x-segments (3 ≤ x ≤ k+2) **of which it is
  an end** — much smaller; |P_r| drives Fig 5.4.

Segments are derived from the actual routing paths (a link-state protocol
chooses one path per pair, which is why the empirical counts are far
below the O(R^{k+1}) worst case — §5.1.1).

:func:`arm_protocol` is the one place a Π2 or Πk+2 detector is put on a
network: it pairs each protocol with its own enumerator above.
"""

from __future__ import annotations

import heapq
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.core.pi2 import Pi2Config, ProtocolPi2
from repro.core.pik2 import PiK2Config, ProtocolPiK2
from repro.core.summaries import PathOracle, SegmentMonitor, SummaryPolicy
from repro.crypto.fingerprint import FingerprintSampler
from repro.crypto.keys import KeyInfrastructure
from repro.dist.sync import ClockModel, RoundSchedule
from repro.net import Network, Topology

PathSegment = Tuple[str, ...]


def all_routing_paths(topology: Topology) -> List[Tuple[str, ...]]:
    """One deterministic shortest path per ordered router pair.

    Dijkstra with lexicographic tie-breaking, mirroring a link-state
    protocol that picks a single stable path per destination.
    """
    paths: List[Tuple[str, ...]] = []
    for src in topology.routers:
        tree = _shortest_path_tree(topology, src)
        for dst in topology.routers:
            if dst == src:
                continue
            path = _extract_path(tree, src, dst)
            if path is not None:
                paths.append(path)
    return paths


def _shortest_path_tree(topology: Topology, src: str) -> Dict[str, Optional[str]]:
    dist: Dict[str, float] = {src: 0.0}
    prev: Dict[str, Optional[str]] = {src: None}
    # Heap entries carry the predecessor name so ties break lexicographically
    # on (cost, predecessor, node), deterministically.
    heap: List[Tuple[float, str, str]] = [(0.0, "", src)]
    done: Set[str] = set()
    while heap:
        d, via, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        for nbr in sorted(topology.neighbors(node)):
            if nbr in done:
                continue
            cost = d + topology.link(node, nbr).metric
            old = dist.get(nbr)
            if old is None or cost < old - 1e-12 or (
                abs(cost - old) <= 1e-12 and node < (prev.get(nbr) or "~")
            ):
                dist[nbr] = cost
                prev[nbr] = node
                heapq.heappush(heap, (cost, node, nbr))
    return prev


def _extract_path(prev: Dict[str, Optional[str]], src: str,
                  dst: str) -> Optional[Tuple[str, ...]]:
    if dst not in prev:
        return None
    path = [dst]
    while path[-1] != src:
        parent = prev[path[-1]]
        if parent is None:
            break
        path.append(parent)
    path.reverse()
    return tuple(path) if path[0] == src else None


def enumerate_segments(path: Tuple[str, ...], length: int) -> Iterable[PathSegment]:
    """All contiguous ``length``-subsequences of ``path``."""
    for i in range(len(path) - length + 1):
        yield tuple(path[i:i + length])


def monitored_segments_pi2(
    paths: Iterable[Tuple[str, ...]], k: int
) -> Dict[str, Set[PathSegment]]:
    """P_r for every router under Π2 and AdjacentFault(k).

    Every member of a monitored segment participates, so a segment lands
    in P_r for each of its routers.
    """
    if k < 1:
        raise ValueError("AdjacentFault(k) needs k >= 1")
    x = k + 2
    by_router: Dict[str, Set[PathSegment]] = defaultdict(set)
    for path in sorted(set(paths)):
        if len(path) >= x:
            for segment in enumerate_segments(path, x):
                for router in segment:
                    by_router[router].add(segment)
        elif len(path) >= 3:
            # Whole short paths: both ends are terminal routers.
            segment = tuple(path)
            for router in segment:
                by_router[router].add(segment)
    return dict(by_router)


def monitored_segments_pik2(
    paths: Iterable[Tuple[str, ...]], k: int
) -> Dict[str, Set[PathSegment]]:
    """P_r for every router under Πk+2 and AdjacentFault(k).

    A router monitors the x-segments (3 ≤ x ≤ k+2) of which it is an
    *end*; both ends hold the segment in their P_r (§5.2).
    """
    if k < 1:
        raise ValueError("AdjacentFault(k) needs k >= 1")
    by_router: Dict[str, Set[PathSegment]] = defaultdict(set)
    for path in sorted(set(paths)):
        for x in range(3, k + 3):
            for segment in enumerate_segments(path, x):
                by_router[segment[0]].add(segment)
                by_router[segment[-1]].add(segment)
    return dict(by_router)


#: Each Π protocol with its configuration and the P_r enumerator it monitors.
_PROTOCOLS = {
    "pi2": (ProtocolPi2, Pi2Config, monitored_segments_pi2),
    "pik2": (ProtocolPiK2, PiK2Config, monitored_segments_pik2),
}


def arm_protocol(
    network: Network,
    paths: Dict[Tuple[str, str], Tuple[str, ...]],
    protocol: str = "pi2",
    *,
    config: Union[Pi2Config, PiK2Config, None] = None,
    tau: float = 1.0,
    last_round: int = 3,
    policy: SummaryPolicy = SummaryPolicy.CONTENT,
    over: Optional[Iterable[Tuple[str, ...]]] = None,
    sampling: float = 1.0,
    start: float = 0.0,
    clock: Optional[ClockModel] = None,
) -> Union[ProtocolPi2, ProtocolPiK2]:
    """Put a Π2 (``"pi2"``) or Πk+2 (``"pik2"``) detector on ``network``.

    ``paths`` is the routing ``install_static_routes`` returned; it backs
    the path oracle.  Segments are enumerated over ``over`` (default:
    every routed path) with the protocol's own enumerator and
    ``config.k``.  A ``SegmentMonitor`` tap records them in rounds of
    ``tau`` seconds from ``start``, read on each router's ``clock``
    (default: no skew), keyed per segment to a ``sampling`` share of
    the traffic when below 1 (§5.2.1); rounds 0..``last_round`` are
    scheduled.  The armed protocol is returned; its ``monitor``,
    ``schedule`` and ``keys`` reach the rest.
    """
    try:
        protocol_cls, config_cls, enumerate_pr = _PROTOCOLS[protocol]
    except KeyError:
        raise ValueError(f"unknown protocol {protocol!r}; "
                         f"one of {', '.join(_PROTOCOLS)}") from None
    config = config or config_cls()
    schedule = RoundSchedule(tau=tau, start=start)
    keys = KeyInfrastructure()
    routed = paths.values() if over is None else over
    segments: Set[PathSegment] = set().union(
        *enumerate_pr([tuple(p) for p in routed], config.k).values())
    samplers = None
    if sampling < 1.0:
        samplers = {segment: FingerprintSampler(
            rate=sampling, key=keys.sampling_key(segment[0], segment[-1]))
            for segment in sorted(segments)}
    monitor = SegmentMonitor(network, PathOracle(paths), schedule,
                             policy=policy, clock=clock, samplers=samplers)
    network.add_tap(monitor)
    armed = protocol_cls(network, monitor, segments, keys, schedule,
                         config=config)
    armed.schedule_rounds(0, last_round)
    return armed


def pr_statistics(by_router: Dict[str, Set[PathSegment]],
                  all_routers: Optional[Iterable[str]] = None
                  ) -> Dict[str, float]:
    """max / mean / median of |P_r| — the series plotted in Figs 5.2/5.4."""
    if all_routers is None:
        sizes = [len(s) for s in by_router.values()]
    else:
        sizes = [len(by_router.get(r, ())) for r in all_routers]
    if not sizes:
        return {"max": 0, "mean": 0.0, "median": 0.0}
    return {
        "max": float(max(sizes)),
        "mean": float(sum(sizes) / len(sizes)),
        "median": float(statistics.median(sizes)),
    }


def watchers_counter_count(topology: Topology) -> Dict[str, int]:
    """Counters per router under WATCHERS: 7 per (neighbor, destination).

    §5.1.1's comparison point: 7 × degree × N counters.
    """
    n = len(topology)
    return {r: 7 * topology.degree(r) * n for r in topology.routers}


def pik2_counter_count(by_router: Dict[str, Set[PathSegment]],
                       topology: Topology) -> Dict[str, int]:
    """Conservation-of-flow counters under Πk+2: two per monitored segment
    (one per direction, §5.2.1)."""
    return {r: 2 * len(by_router.get(r, ())) for r in topology.routers}
