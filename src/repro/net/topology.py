"""Network topologies.

A :class:`Topology` is a set of named routers connected by directional
point-to-point links (each undirected cable is two directed links, as in
the paper's model, §4.1).  Links carry bandwidth (bytes/second), one-way
propagation delay (seconds) and a routing metric.

Besides hand-built test topologies (chain, diamond) this module provides:

* :func:`abilene` — the public 11-PoP Abilene backbone used by the Fatih
  prototype evaluation (Fig 5.6), with link delays calibrated so that the
  New York <-> Sunnyvale shortest path is 25 ms one-way via Kansas City
  and the post-detection alternative is 28 ms via Houston, matching
  Fig 5.7.
* :func:`sprintlink_like` / :func:`ebone_like` — deterministic synthetic
  stand-ins for the Rocketfuel-measured Sprintlink (315 routers, 972
  links, mean degree 6.17, max 45) and EBONE (87 routers, 161 links, mean
  3.70, max 11) topologies analysed in §5.1.1/§5.2.1, matched on node
  count, link count and degree statistics.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

MBPS = 125_000  # bytes per second in one megabit/second


@dataclass
class Link:
    """A directed point-to-point link."""

    src: str
    dst: str
    bandwidth: float = 100 * MBPS  # bytes/second
    delay: float = 0.001  # seconds, one-way propagation
    metric: float = 1.0  # routing cost
    queue_limit: int = 64_000  # output buffer, bytes
    mtu: Optional[int] = None  # None = no fragmentation on this link
    up: bool = True  # administrative/physical state

    @property
    def ends(self) -> Tuple[str, str]:
        return (self.src, self.dst)


class Topology:
    """Named routers plus directed links between them."""

    def __init__(self, name: str = "topology") -> None:
        self.name = name
        self._nodes: List[str] = []
        self._node_set: set = set()
        self._links: Dict[Tuple[str, str], Link] = {}
        self._adjacency: Dict[str, List[str]] = {}
        # Undirected neighbours, each router's in order of first appearance
        # over ``_links``: the graph the undirected queries below read.
        self._undirected: Dict[str, List[str]] = {}
        #: Monotone structural revision.  Bumped whenever the router/link
        #: structure changes; :mod:`repro.net.routing` keys its SPF caches
        #: on it.  Callers that mutate :class:`Link` fields that feed path
        #: costs (``metric``) in place must call :meth:`bump_version`.
        self.version: int = 0

    def bump_version(self) -> None:
        """Invalidate routing caches after an in-place link mutation."""
        self.version += 1

    # -- construction -----------------------------------------------------
    def add_router(self, name: str) -> None:
        if name in self._node_set:
            return
        self._nodes.append(name)
        self._node_set.add(name)
        self._adjacency[name] = []
        self._undirected[name] = []
        self.version += 1

    def add_link(
        self,
        a: str,
        b: str,
        bandwidth: float = 100 * MBPS,
        delay: float = 0.001,
        metric: Optional[float] = None,
        queue_limit: int = 64_000,
        mtu: Optional[int] = None,
        bidirectional: bool = True,
    ) -> None:
        """Add a link a->b (and b->a unless ``bidirectional`` is False).

        Every direction is checked before any is inserted, so a call that
        raises leaves the topology unchanged.
        """
        if a == b:
            raise ValueError(f"self-link on {a!r}")
        pairs = [(a, b), (b, a)] if bidirectional else [(a, b)]
        for src, dst in pairs:
            if (src, dst) in self._links:
                raise ValueError(f"duplicate link {src}->{dst}")
        self.add_router(a)
        self.add_router(b)
        if metric is None:
            metric = delay * 1000.0  # default: cost proportional to delay (ms)
        for src, dst in pairs:
            if (dst, src) not in self._links:
                self._undirected[src].append(dst)
                self._undirected[dst].append(src)
            self._links[(src, dst)] = Link(
                src, dst, bandwidth=bandwidth, delay=delay, metric=metric,
                queue_limit=queue_limit, mtu=mtu,
            )
            self._adjacency[src].append(dst)
        self.version += 1

    # -- queries ----------------------------------------------------------
    @property
    def routers(self) -> List[str]:
        return list(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._node_set

    def __len__(self) -> int:
        return len(self._nodes)

    def neighbors(self, name: str) -> List[str]:
        return list(self._adjacency[name])

    def degree(self, name: str) -> int:
        return len(self._adjacency[name])

    def link(self, a: str, b: str) -> Link:
        try:
            return self._links[(a, b)]
        except KeyError:
            raise KeyError(f"no link {a}->{b} in {self.name}") from None

    def has_link(self, a: str, b: str) -> bool:
        return (a, b) in self._links

    def links(self) -> Iterator[Link]:
        return iter(self._links.values())

    # -- undirected structure -------------------------------------------
    # These read the cables, not the directed links: a one-way link joins
    # its two routers like a two-way one.

    def undirected_link_count(self) -> int:
        return sum(map(len, self._undirected.values())) // 2

    def is_connected(self) -> bool:
        """Whether every router reaches every other (True when empty)."""
        if not self._nodes:
            return True
        seen = {self._nodes[0]}
        queue = deque(seen)
        while queue:
            for w in self._undirected[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == len(self._nodes)

    def articulation_points(self) -> Set[str]:
        """Routers whose removal disconnects the rest of their component."""
        cut: Set[str] = set()
        discovery: Dict[str, int] = {}
        low: Dict[str, int] = {}
        for root in self._nodes:
            if root in discovery:
                continue
            discovery[root] = low[root] = len(discovery)
            root_children = 0
            stack = [(root, root, iter(self._undirected[root]))]
            while stack:
                parent, v, children = stack[-1]
                for w in children:
                    if w not in discovery:
                        discovery[w] = low[w] = len(discovery)
                        stack.append((v, w, iter(self._undirected[w])))
                        break
                    if w != parent:
                        low[v] = min(low[v], discovery[w])
                else:
                    stack.pop()
                    if v == root:
                        continue
                    low[parent] = min(low[parent], low[v])
                    if parent == root:
                        root_children += 1
                    elif low[v] >= discovery[parent]:
                        cut.add(parent)
            if root_children > 1:
                cut.add(root)
        return cut

    def betweenness(self) -> Dict[str, float]:
        """Normalised shortest-path betweenness of every router.

        Brandes (2001) over unweighted hops, endpoints excluded, scaled by
        ``1 / ((n-1)(n-2))``.  Placement breaks exact ties by these floats,
        so the sums keep one order to the bit: sources in router order,
        predecessors in discovery order, dependencies in reverse BFS order
        (``tests/test_topology.py`` holds them equal to the reference
        implementation's).
        """
        centrality = dict.fromkeys(self._nodes, 0.0)
        for s in self._nodes:
            order: List[str] = []
            preds: Dict[str, List[str]] = {s: []}
            sigma = {s: 1.0}
            dist = {s: 0}
            queue = deque([s])
            while queue:
                v = queue.popleft()
                order.append(v)
                dv = dist[v] + 1
                sigma_v = sigma[v]
                for w in self._undirected[v]:
                    if w not in dist:
                        queue.append(w)
                        dist[w] = dv
                        sigma[w] = 0.0
                        preds[w] = []
                    if dist[w] == dv:
                        sigma[w] += sigma_v
                        preds[w].append(v)
            delta = dict.fromkeys(order, 0.0)
            while order:
                w = order.pop()
                coeff = (1 + delta[w]) / sigma[w]
                for v in preds[w]:
                    delta[v] += sigma[v] * coeff
                if w != s:
                    centrality[w] += delta[w]
        n = len(self._nodes)
        if n >= 3:
            scale = 1 / ((n - 1) * (n - 2))
            for v in centrality:
                centrality[v] *= scale
        return centrality

    def degree_stats(self) -> Tuple[float, int]:
        """(mean degree, max degree) over all routers; (0.0, 0) if none."""
        if not self._nodes:
            return (0.0, 0)
        degrees = [self.degree(n) for n in self._nodes]
        return (sum(degrees) / len(degrees), max(degrees))


# -- canned topologies -----------------------------------------------------

def chain(n: int, prefix: str = "r", **link_kwargs) -> Topology:
    """A path topology r1 - r2 - ... - rn."""
    if n < 1:
        raise ValueError("chain needs at least one router")
    topo = Topology(name=f"chain-{n}")
    names = [f"{prefix}{i}" for i in range(1, n + 1)]
    for name in names:
        topo.add_router(name)
    for a, b in zip(names, names[1:]):
        topo.add_link(a, b, **link_kwargs)
    return topo


def diamond(**link_kwargs) -> Topology:
    """Source s, sink t, two disjoint 2-hop paths via a and b."""
    topo = Topology(name="diamond")
    for a, b in [("s", "a"), ("a", "t"), ("s", "b"), ("b", "t")]:
        topo.add_link(a, b, **link_kwargs)
    return topo


def ring(n: int, prefix: str = "r", **link_kwargs) -> Topology:
    """A cycle topology r1 - r2 - ... - rn - r1."""
    if n < 3:
        raise ValueError("ring needs at least three routers")
    topo = chain(n, prefix=prefix, **link_kwargs)
    topo.name = f"ring-{n}"
    topo.add_link(f"{prefix}{n}", f"{prefix}1", **link_kwargs)
    return topo


def grid(rows: int, cols: int, prefix: str = "r", **link_kwargs) -> Topology:
    """A rows x cols mesh; router ``r{i}x{j}`` connects to its 4-neighbours."""
    if rows < 1 or cols < 1:
        raise ValueError("grid needs at least one row and one column")
    if rows * cols < 2:
        raise ValueError("grid needs at least two routers")
    topo = Topology(name=f"grid-{rows}x{cols}")
    names = [[f"{prefix}{i}x{j}" for j in range(1, cols + 1)]
             for i in range(1, rows + 1)]
    for row in names:
        for name in row:
            topo.add_router(name)
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                topo.add_link(names[i][j], names[i][j + 1], **link_kwargs)
            if i + 1 < rows:
                topo.add_link(names[i][j], names[i + 1][j], **link_kwargs)
    return topo


ABILENE_POPS = [
    "Seattle", "Sunnyvale", "LosAngeles", "Denver", "KansasCity",
    "Houston", "Indianapolis", "Chicago", "Atlanta", "WashingtonDC",
    "NewYork",
]

# (a, b, one-way delay seconds).  Delays are calibrated so the shortest
# Sunnyvale->NewYork path (via Denver, KansasCity, Indianapolis, Chicago)
# sums to 25 ms and the alternative (via LosAngeles, Houston, Atlanta,
# WashingtonDC) sums to 28 ms, as reported for Fig 5.7.
ABILENE_LINKS = [
    ("Seattle", "Sunnyvale", 0.004),
    ("Seattle", "Denver", 0.006),
    ("Sunnyvale", "LosAngeles", 0.003),
    ("Sunnyvale", "Denver", 0.005),
    ("LosAngeles", "Houston", 0.007),
    ("Denver", "KansasCity", 0.004),
    ("KansasCity", "Houston", 0.005),
    ("KansasCity", "Indianapolis", 0.005),
    ("Houston", "Atlanta", 0.007),
    ("Indianapolis", "Chicago", 0.003),
    ("Indianapolis", "Atlanta", 0.006),
    ("Chicago", "NewYork", 0.008),
    ("Atlanta", "WashingtonDC", 0.005),
    ("WashingtonDC", "NewYork", 0.006),
]


def abilene(
    bandwidth: float = 100 * MBPS, queue_limit: int = 64_000
) -> Topology:
    """The Abilene backbone of Fig 5.6."""
    topo = Topology(name="abilene")
    for pop in ABILENE_POPS:
        topo.add_router(pop)
    for a, b, delay in ABILENE_LINKS:
        topo.add_link(a, b, bandwidth=bandwidth, delay=delay,
                      queue_limit=queue_limit)
    return topo


def _preferential_topology(
    n_nodes: int,
    n_links: int,
    max_degree: int,
    seed: int,
    name: str,
) -> Topology:
    """Connected preferential-attachment graph with exact node/link counts.

    Builds a random spanning tree (guaranteeing connectivity), then adds
    extra links by preferential attachment subject to a degree cap.  The
    result has exactly ``n_nodes`` routers and ``n_links`` undirected
    links, a heavy-tailed degree distribution and a controlled maximum
    degree — the properties that Fig 5.2 / Fig 5.4 depend on.
    """
    if n_links < n_nodes - 1:
        raise ValueError("need at least n_nodes-1 links for connectivity")
    rng = random.Random(seed)
    names = [f"{name}-{i}" for i in range(n_nodes)]
    degree = {v: 0 for v in names}
    edges: set = set()

    # Random spanning tree by preferential attachment of new nodes.
    attached = [names[0]]
    for node in names[1:]:
        weights = [degree[v] + 1 for v in attached]
        target = rng.choices(attached, weights=weights, k=1)[0]
        while degree[target] >= max_degree:
            target = rng.choices(attached, weights=weights, k=1)[0]
        edges.add(frozenset((node, target)))
        degree[node] += 1
        degree[target] += 1
        attached.append(node)

    # Extra links, preferentially, under the degree cap.
    attempts = 0
    while len(edges) < n_links:
        attempts += 1
        if attempts > 200 * n_links:
            raise RuntimeError("degree cap too tight to place all links")
        weights = [degree[v] + 1 for v in names]
        a, b = rng.choices(names, weights=weights, k=2)
        if a == b:
            continue
        if degree[a] >= max_degree or degree[b] >= max_degree:
            continue
        key = frozenset((a, b))
        if key in edges:
            continue
        edges.add(key)
        degree[a] += 1
        degree[b] += 1

    topo = Topology(name=name)
    for v in names:
        topo.add_router(v)
    for key in sorted(edges, key=lambda e: tuple(sorted(e))):
        a, b = sorted(key)
        topo.add_link(a, b)
    return topo


def sprintlink_like(seed: int = 1239) -> Topology:
    """Synthetic topology matched to Rocketfuel Sprintlink (AS1239).

    315 routers / 972 links; the measured network has mean degree 6.17 and
    maximum degree 45 (§5.1.1).
    """
    return _preferential_topology(
        n_nodes=315, n_links=972, max_degree=45, seed=seed, name="sprintlink"
    )


def ebone_like(seed: int = 1755) -> Topology:
    """Synthetic topology matched to Rocketfuel EBONE (AS1755).

    87 routers / 161 links; mean degree 3.70, maximum degree 11 (§5.1.1).
    """
    return _preferential_topology(
        n_nodes=87, n_links=161, max_degree=11, seed=seed, name="ebone"
    )
