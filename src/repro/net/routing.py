"""Link-state routing with suspicion-driven path-segment exclusion.

Two modes are provided:

* :func:`install_static_routes` — compute shortest paths straight from the
  topology and install forwarding tables.  Used by experiments that are
  not about control-plane dynamics.
* :class:`LinkStateRouting` — an OSPF-flavoured daemon per router: hello
  adjacency bring-up, LSA flooding, SPF scheduling with *delay* and *hold*
  timers (the two Zebra parameters called out in §5.3.2), and alert
  flooding.  This reproduces the Fig 5.7 timeline: initial convergence,
  detection, and rerouting one spf-delay + hold later.

**Response semantics** (§2.4.3, §5.3.1): a suspicion names a path-segment
⟨r1..rm⟩.  A 2-segment excludes the link; a longer segment forbids any
path that traverses those routers *consecutively in that order*.  Because
hop-by-hop tables keyed only on destination cannot express "don't follow
a→b→c", the paper uses policy routing keyed on source; we reproduce that
by computing per-(src, dst) paths under the forbidden-window constraint
and installing per-pair policy entries along each path.
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.net.router import Network
from repro.net.topology import Topology

PathSegment = Tuple[str, ...]


# -- cached single-source SPF ----------------------------------------------
#
# Every path query is answered from one single-source Dijkstra tree per
# (source, LSDB view ``link_up``, excluded links, forbidden windows),
# cached under ``Topology.version`` so any structural change (a new
# link, ``fail_link``, a ``metric`` edit plus ``bump_version``)
# invalidates it.  A per-pair search is the single-source search stopped
# at the destination's first pop: every push, pop and ``(cost, counter)``
# tie-break before that pop is the same, so recording the first popped
# state per destination gives every destination's per-pair path at once.
# That holds with constraints too, since they only prune edges and widen
# the remembered window.  Constrained queries are not rare: in the seed-0
# ``fatih-abilene`` ledger run they are 2,640 of the 3,370 path queries
# (every router re-runs SPF per source once an alert floods), and 95
# trees answer all of them.  Routers that share an LSDB view and a
# suspicion set share trees.

_SpfKey = Tuple[str, Optional[FrozenSet[Tuple[str, str]]],
                FrozenSet[Tuple[str, str]], Tuple[PathSegment, ...]]
_spf_cache: "weakref.WeakKeyDictionary[Topology, Tuple[int, Dict[_SpfKey, Dict[str, List[str]]]]]" = (
    weakref.WeakKeyDictionary()
)


def _single_source_spf(
    topology: Topology,
    src: str,
    bad_links: FrozenSet[Tuple[str, str]],
    windows: Tuple[PathSegment, ...],
    link_up: Optional[FrozenSet[Tuple[str, str]]],
) -> Dict[str, List[str]]:
    """Paths from ``src`` to every reachable router that never take a
    link in ``bad_links`` nor traverse a window of ``windows``.

    Dijkstra over (window) states: a state remembers the last
    ``max(len(windows)) - 1`` routers (at least one), so a forbidden
    window is caught the moment a path would complete it; with no
    window a state is the router alone.  ``link_up``, when given,
    restricts usable links (a daemon's LSDB view).
    """
    # trailing routers a state holds: with no window, the router alone
    keep = max(1, max(len(w) for w in windows) - 1) + 1 if windows else 1
    n_routers = len(topology)
    start_state = (src,)
    dist: Dict[Tuple[str, ...], float] = {start_state: 0.0}
    prev: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
    counter = itertools.count()
    heap: List[Tuple[float, int, Tuple[str, ...]]] = [(0.0, next(counter), start_state)]
    finals: Dict[str, Tuple[str, ...]] = {}

    while heap:
        d, _, state = heapq.heappop(heap)
        if d > dist[state]:
            continue
        here = state[-1]
        if here not in finals:
            finals[here] = state
            if len(finals) == n_routers:
                break
        for nbr in topology.neighbors(here):
            if (here, nbr) in bad_links:
                continue
            if link_up is not None and (here, nbr) not in link_up:
                continue
            if nbr in state:  # no loops within the remembered window
                continue
            walk = state + (nbr,)
            if windows and any(walk[-len(w):] == w for w in windows):
                continue
            new_state = walk[-keep:]
            cost = d + topology.link(here, nbr).metric
            if cost < dist.get(new_state, float("inf")):
                dist[new_state] = cost
                prev[new_state] = state
                heapq.heappush(heap, (cost, next(counter), new_state))

    paths: Dict[str, List[str]] = {}
    for dst, final in finals.items():
        # The full path is the prev-chain of window states.
        path_rev = [final[-1]]
        state = final
        while state in prev:
            state = prev[state]
            path_rev.append(state[-1])
        path_rev.reverse()
        paths[dst] = path_rev
    return paths


def _cached_tree(
    topology: Topology,
    src: str,
    link_up: Optional[AbstractSet[Tuple[str, str]]],
    bad_links: FrozenSet[Tuple[str, str]] = frozenset(),
    windows: Tuple[PathSegment, ...] = (),
) -> Dict[str, List[str]]:
    """The shared (read-only) tree :func:`_single_source_spf` returns."""
    key: _SpfKey = (src, None if link_up is None else frozenset(link_up),
                    bad_links, windows)
    cached = _spf_cache.get(topology)
    if cached is None or cached[0] != topology.version:
        cached = (topology.version, {})
        _spf_cache[topology] = cached
    trees = cached[1]
    tree = trees.get(key)
    if tree is None:
        tree = _single_source_spf(topology, src, bad_links, windows, key[1])
        trees[key] = tree
    return tree


def _forbidden_windows(
    suspicions: Iterable[PathSegment],
) -> Tuple[FrozenSet[Tuple[str, str]], Tuple[PathSegment, ...]]:
    """Split suspicions into excluded links and forbidden windows (len>=3).

    ``bad_links`` is only ever membership-tested, so a set is fine;
    ``windows`` is *iterated* on the Dijkstra hot path, so it comes back
    as a sorted tuple — set iteration order is PYTHONHASHSEED-salted and
    must never reach path computation (nor a tree's cache key).
    """
    bad_links: Set[Tuple[str, str]] = set()
    window_set: Set[PathSegment] = set()
    for seg in suspicions:
        seg = tuple(seg)
        if len(seg) < 2:
            continue
        if len(seg) == 2:
            bad_links.add((seg[0], seg[1]))
        else:
            window_set.add(seg)
    return frozenset(bad_links), tuple(sorted(window_set))


def shortest_path_avoiding(
    topology: Topology,
    src: str,
    dst: str,
    suspicions: Iterable[PathSegment] = (),
    link_up: Optional[Set[Tuple[str, str]]] = None,
) -> Optional[List[str]]:
    """Shortest path that never takes a suspected segment.

    ``link_up``, when given, restricts usable links (the daemon passes its
    LSDB view).  Returns the router sequence or None if unreachable.
    """
    path = _cached_tree(topology, src, link_up,
                        *_forbidden_windows(suspicions)).get(dst)
    return None if path is None else list(path)


def compute_all_paths(
    topology: Topology,
    suspicions: Iterable[PathSegment] = (),
    link_up: Optional[Set[Tuple[str, str]]] = None,
) -> Dict[Tuple[str, str], List[str]]:
    """Shortest path for every ordered router pair, under constraints."""
    bad_links, windows = _forbidden_windows(suspicions)
    if link_up is not None:
        link_up = frozenset(link_up)
    paths: Dict[Tuple[str, str], List[str]] = {}
    routers = topology.routers
    for src in routers:
        tree = _cached_tree(topology, src, link_up, bad_links, windows)
        for dst in routers:
            path = tree.get(dst)
            if dst != src and path is not None:
                paths[(src, dst)] = list(path)
    return paths


def install_static_routes(
    network: Network,
    suspicions: Iterable[PathSegment] = (),
) -> Dict[Tuple[str, str], List[str]]:
    """Compute and install routes; returns the path map used.

    Destination-keyed tables are installed from the unconstrained shortest
    paths; when suspicions exist, per-(src, dst) policy entries are added
    along every constrained path (the paper's policy-based routing).
    """
    suspicions = list(suspicions)
    topo = network.topology
    base_paths = compute_all_paths(topo)
    for (src, dst), path in base_paths.items():
        if path[0] == src and len(path) > 1:
            network.routers[src].forwarding_table.setdefault(dst, [])
    # Plain dst-keyed tables from unconstrained SPF:
    for (src, dst), path in base_paths.items():
        network.routers[src].forwarding_table[dst] = [path[1]]
    paths = base_paths
    if suspicions:
        paths = compute_all_paths(topo, suspicions)
        for router in network.routers.values():
            router.policy_table = {}
        for (src, dst), path in paths.items():
            for i, hop in enumerate(path[:-1]):
                network.routers[hop].policy_table[(src, dst)] = [path[i + 1]]
    return paths


@dataclass
class LSA:
    """A link-state advertisement: who I am, my live links, my sequence."""

    origin: str
    seq: int
    links: Tuple[str, ...]  # neighbor names with an up adjacency


@dataclass
class Alert:
    """A flooded suspicion announcement (signed by origin in the model)."""

    origin: str
    segment: PathSegment
    interval: Tuple[float, float]
    alert_id: int = 0


class LinkStateRouting:
    """Network-wide OSPF-flavoured control plane with Fatih response hooks."""

    def __init__(
        self,
        network: Network,
        spf_delay: float = 5.0,
        spf_hold: float = 10.0,
        hello_interval: float = 10.0,
        hellos_for_adjacency: int = 2,
        boot_spread: float = 30.0,
        flood_hop_delay: float = 0.05,
        lsa_refresh: float = 15.0,
        dead_interval: Optional[float] = None,
    ) -> None:
        self.network = network
        self.spf_delay = spf_delay
        self.spf_hold = spf_hold
        self.hello_interval = hello_interval
        self.hellos_for_adjacency = hellos_for_adjacency
        self.boot_spread = boot_spread
        self.flood_hop_delay = flood_hop_delay
        self.lsa_refresh = lsa_refresh
        # OSPF router-dead interval: adjacency drops after this long
        # without a hello (default: 4 hello intervals, as in OSPF).
        self.dead_interval = (dead_interval if dead_interval is not None
                              else 4.0 * hello_interval)
        sim = network.sim
        names = network.topology.routers
        self._alert_ids = itertools.count(1)
        self.state: Dict[str, _DaemonState] = {
            name: _DaemonState(name) for name in names
        }
        self.converged_at: Dict[str, float] = {}
        self.suspicion_log: List[Tuple[float, Alert]] = []
        self.spf_runs: List[Tuple[float, str]] = []

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> None:
        """Boot every daemon at a deterministic, spread-out time."""
        names = self.network.topology.routers
        for i, name in enumerate(names):
            boot = (i / max(1, len(names) - 1)) * self.boot_spread if len(names) > 1 else 0.0
            self.network.sim.schedule_at(boot, self._boot, name)

    def _boot(self, name: str) -> None:
        st = self.state[name]
        st.booted = True
        self._send_hellos(name)
        self.network.sim.schedule(self.lsa_refresh, self._refresh_lsa, name)

    def _refresh_lsa(self, name: str) -> None:
        """Periodic re-origination so late-booting routers catch up
        (standing in for OSPF's database exchange + LSA refresh)."""
        st = self.state[name]
        if st.adjacencies:
            self._originate_lsa(name)
        self.network.sim.schedule(self.lsa_refresh, self._refresh_lsa, name)

    def _send_hellos(self, name: str) -> None:
        st = self.state[name]
        if not st.booted:
            return
        for nbr in self.network.routers[name].neighbors():
            if not self.network.topology.link(name, nbr).up:
                continue  # the wire is dead; hellos die with it
            self.network.sim.schedule(
                self.flood_hop_delay, self._recv_hello, nbr, name
            )
        self._check_dead_neighbors(name)
        self.network.sim.schedule(self.hello_interval, self._send_hellos, name)

    def _check_dead_neighbors(self, name: str) -> None:
        """Drop adjacencies whose hellos stopped (router-dead interval)."""
        st = self.state[name]
        now = self.network.sim.now
        dead = [nbr for nbr in st.adjacencies
                if now - st.last_hello.get(nbr, now) > self.dead_interval]
        if not dead:
            return
        for nbr in dead:
            st.adjacencies.discard(nbr)
            st.hello_counts[nbr] = 0
        self._originate_lsa(name)

    def _recv_hello(self, at: str, from_nbr: str) -> None:
        st = self.state[at]
        if not st.booted:
            return
        if not self.network.topology.link(from_nbr, at).up:
            return  # in-flight hello on a link that just died
        st.last_hello[from_nbr] = self.network.sim.now
        st.hello_counts[from_nbr] = st.hello_counts.get(from_nbr, 0) + 1
        if (st.hello_counts[from_nbr] >= self.hellos_for_adjacency
                and from_nbr not in st.adjacencies):
            st.adjacencies.add(from_nbr)
            self._originate_lsa(at)

    def _originate_lsa(self, name: str) -> None:
        st = self.state[name]
        st.lsa_seq += 1
        lsa = LSA(origin=name, seq=st.lsa_seq,
                  links=tuple(sorted(st.adjacencies)))
        self._install_lsa(name, lsa)
        self._flood(name, lsa, exclude=None)

    def _flood(self, at: str, item, exclude: Optional[str]) -> None:
        for nbr in self.network.routers[at].neighbors():
            if nbr == exclude:
                continue
            if not self.network.topology.link(at, nbr).up:
                continue
            self.network.sim.schedule(
                self.flood_hop_delay, self._recv_flood, nbr, at, item
            )

    def _recv_flood(self, at: str, from_nbr: str, item) -> None:
        st = self.state[at]
        if not st.booted:
            return
        if isinstance(item, LSA):
            known = st.lsdb.get(item.origin)
            if known is not None and known.seq >= item.seq:
                return
            self._install_lsa(at, item)
            self._flood(at, item, exclude=from_nbr)
        elif isinstance(item, Alert):
            if item.alert_id in st.seen_alerts:
                return
            st.seen_alerts.add(item.alert_id)
            self._accept_alert(at, item)
            self._flood(at, item, exclude=from_nbr)

    def _install_lsa(self, at: str, lsa: LSA) -> None:
        st = self.state[at]
        known = st.lsdb.get(lsa.origin)
        st.lsdb[lsa.origin] = lsa
        if known is None or known.links != lsa.links:
            self._schedule_spf(at)

    def _accept_alert(self, at: str, alert: Alert) -> None:
        st = self.state[at]
        st.suspicions.add(tuple(alert.segment))
        self.suspicion_log.append((self.network.sim.now, alert))
        self._schedule_spf(at)

    # -- SPF scheduling (delay + hold timers, §5.3.2) ------------------------
    def _schedule_spf(self, name: str) -> None:
        st = self.state[name]
        if st.spf_pending:
            return
        now = self.network.sim.now
        earliest = max(now + self.spf_delay, st.last_spf + self.spf_hold)
        st.spf_pending = True
        self.network.sim.schedule_at(earliest, self._run_spf, name)

    def _run_spf(self, name: str) -> None:
        st = self.state[name]
        st.spf_pending = False
        st.last_spf = self.network.sim.now
        self.spf_runs.append((self.network.sim.now, name))
        link_up = self._links_up(st)
        topo = self.network.topology
        router = self.network.routers[name]
        # dst-keyed table from this router's LSDB view.
        table: Dict[str, List[str]] = {}
        policy: Dict[Tuple[str, str], List[str]] = {}
        own = _cached_tree(topo, name, link_up)
        for dst in topo.routers:
            path = own.get(dst)
            if path is not None and len(path) > 1:
                table[dst] = [path[1]]
        if st.suspicions:
            # Per-(src, dst) policy entries for transit traffic through us.
            bad_links, windows = _forbidden_windows(st.suspicions)
            for src in topo.routers:
                tree = _cached_tree(topo, src, link_up, bad_links, windows)
                for dst in topo.routers:
                    path = tree.get(dst)
                    if path is None or name not in path[:-1]:
                        continue
                    idx = path.index(name)
                    policy[(src, dst)] = [path[idx + 1]]
        router.forwarding_table = table
        router.policy_table = policy
        if table and name not in self.converged_at:
            if len(table) == len(topo.routers) - 1:
                self.converged_at[name] = self.network.sim.now

    def _links_up(self, st: "_DaemonState") -> FrozenSet[Tuple[str, str]]:
        up: Set[Tuple[str, str]] = set()
        for origin, lsa in st.lsdb.items():
            for nbr in lsa.links:
                up.add((origin, nbr))
        # A link is usable only if both directions are advertised.
        return frozenset([(a, b) for (a, b) in up if (b, a) in up])

    # -- public API ----------------------------------------------------------
    def announce_suspicion(self, origin: str, segment: PathSegment,
                           interval: Tuple[float, float]) -> None:
        """Called by a detector at ``origin``: flood an alert network-wide."""
        alert = Alert(origin=origin, segment=tuple(segment),
                      interval=interval, alert_id=next(self._alert_ids))
        st = self.state[origin]
        st.seen_alerts.add(alert.alert_id)
        self._accept_alert(origin, alert)
        self._flood(origin, alert, exclude=None)

    def all_converged(self) -> bool:
        return len(self.converged_at) == len(self.network.routers)

    def convergence_time(self) -> Optional[float]:
        if not self.all_converged():
            return None
        return max(self.converged_at.values())


class _DaemonState:
    def __init__(self, name: str) -> None:
        self.name = name
        self.booted = False
        self.hello_counts: Dict[str, int] = {}
        self.last_hello: Dict[str, float] = {}
        self.adjacencies: Set[str] = set()
        self.lsa_seq = 0
        self.lsdb: Dict[str, LSA] = {}
        self.suspicions: Set[PathSegment] = set()
        self.seen_alerts: Set[int] = set()
        self.spf_pending = False
        self.last_spf = float("-inf")
