"""Unit tests for routing: constrained SPF, static install, OSPF daemon."""

import heapq
import itertools
from typing import Dict, List, Optional, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packet import Packet
from repro.net.router import Network
from repro.net.routing import (
    LinkStateRouting,
    _cached_tree,
    _spf_cache,
    compute_all_paths,
    install_static_routes,
    shortest_path_avoiding,
)
from repro.net.topology import Topology, abilene, chain, diamond


def reference_shortest_path_avoiding(topology, src, dst, suspicions=(),
                                     link_up=None):
    """The per-pair window-state Dijkstra the routing module once ran for
    every constrained query: it stops at the destination's first pop.
    The cached single-source trees must reproduce it exactly."""
    bad_links: Set[Tuple[str, str]] = set()
    windows = []
    for seg in suspicions:
        seg = tuple(seg)
        if len(seg) == 2:
            bad_links.add(seg)
        elif len(seg) > 2:
            windows.append(seg)
    max_window = max((len(w) for w in windows), default=2)
    wsize = max(1, max_window - 1)  # how many trailing routers to remember

    def blocked(window: Tuple[str, ...]) -> bool:
        # window is the path suffix including the new router
        for w in windows:
            if len(window) >= len(w) and window[-len(w):] == w:
                return True
        return False

    start_state = (src,)
    dist: Dict[Tuple[str, ...], float] = {start_state: 0.0}
    prev: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
    counter = itertools.count()
    heap: List[Tuple[float, int, Tuple[str, ...]]] = [(0.0, next(counter), start_state)]
    best_final: Optional[Tuple[str, ...]] = None

    while heap:
        d, _, state = heapq.heappop(heap)
        if d > dist.get(state, float("inf")):
            continue
        here = state[-1]
        if here == dst:
            best_final = state
            break
        for nbr in topology.neighbors(here):
            if (here, nbr) in bad_links:
                continue
            if link_up is not None and (here, nbr) not in link_up:
                continue
            if nbr in state:  # no loops within remembered window; also cheap cycle guard
                continue
            new_window = (state + (nbr,))[-(wsize + 1):]
            if blocked(state + (nbr,)):
                continue
            cost = d + topology.link(here, nbr).metric
            new_state = new_window
            # Keep full path via prev-chain; state key is the window.
            key = new_state
            if cost < dist.get(key, float("inf")):
                dist[key] = cost
                prev[key] = state
                heapq.heappush(heap, (cost, next(counter), key))

    if best_final is None:
        return None
    # Reconstruct path by walking prev chain of window states.
    path_rev = [best_final[-1]]
    state = best_final
    while state in prev:
        parent = prev[state]
        path_rev.append(parent[-1])
        state = parent
    path = list(reversed(path_rev))
    if path[0] != src:
        path.insert(0, src)
    # Deduplicate accidental repeats from window-state reconstruction.
    cleaned = [path[0]]
    for hop in path[1:]:
        if hop != cleaned[-1]:
            cleaned.append(hop)
    return cleaned


@st.composite
def constrained_queries(draw):
    """A connected topology with tied integer metrics, a suspicion set of
    excluded links and 3-/4-router windows, and maybe an LSDB view."""
    n = draw(st.integers(4, 9))
    names = [f"n{i}" for i in range(n)]
    topo = Topology()
    metric = st.integers(1, 3)  # few values: many equal-cost ties
    for i in range(1, n):  # a random spanning tree keeps it connected
        topo.add_link(names[draw(st.integers(0, i - 1))], names[i],
                      metric=draw(metric))
    pairs = [(a, b) for a, b in itertools.combinations(names, 2)
             if not topo.has_link(a, b)]
    for a, b in draw(st.lists(st.sampled_from(pairs), unique=True,
                              max_size=n)) if pairs else ():
        topo.add_link(a, b, metric=draw(metric))

    # Suspect runs of routed paths, so the constraints bite.
    routed = sorted({tuple(path[i:i + length])
                     for path in (reference_shortest_path_avoiding(
                         topo, src, dst) for src in names for dst in names)
                     for length in (2, 3, 4)
                     for i in range(len(path) - length + 1)})
    suspicions = draw(st.lists(st.sampled_from(routed), max_size=4))
    directed = sorted((link.src, link.dst) for link in topo.links())
    link_up = draw(st.none() | st.sets(st.sampled_from(directed),
                                       min_size=len(directed) // 2))
    return topo, suspicions, link_up


class TestSingleSourceTrees:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(constrained_queries())
    def test_trees_equal_per_pair_reference(self, query):
        topo, suspicions, link_up = query
        expected = {}
        for src in topo.routers:
            for dst in topo.routers:
                ref = reference_shortest_path_avoiding(
                    topo, src, dst, suspicions, link_up)
                assert shortest_path_avoiding(
                    topo, src, dst, suspicions, link_up) == ref
                if src != dst and ref is not None:
                    expected[(src, dst)] = ref
            assert shortest_path_avoiding(
                topo, src, src, suspicions, link_up) == [src]
        got = compute_all_paths(topo, suspicions, link_up)
        assert list(got.items()) == list(expected.items())

    def test_returned_paths_are_fresh_lists(self):
        topo = diamond()
        path = shortest_path_avoiding(topo, "s", "t")
        path.append("x")
        compute_all_paths(topo)[("s", "t")].append("x")
        assert shortest_path_avoiding(topo, "s", "t")[-1] == "t"

    def test_views_and_suspicion_sets_never_share_a_tree(self):
        topo = diamond()
        up = {(a, b) for a, b in [("s", "a"), ("a", "t"), ("s", "b"),
                                  ("b", "t")]}
        up |= {(b, a) for a, b in up}
        via_a = frozenset(up - {("s", "b"), ("b", "s")})
        via_b = frozenset(up - {("s", "a"), ("a", "s")})
        assert _cached_tree(topo, "s", via_a) is not _cached_tree(
            topo, "s", via_b)
        assert shortest_path_avoiding(topo, "s", "t", link_up=via_a) == \
            ["s", "a", "t"]
        assert shortest_path_avoiding(topo, "s", "t", link_up=via_b) == \
            ["s", "b", "t"]
        assert shortest_path_avoiding(topo, "s", "t", [("s", "a")]) == \
            ["s", "b", "t"]
        assert shortest_path_avoiding(topo, "s", "t", [("s", "b")]) == \
            ["s", "a", "t"]
        assert shortest_path_avoiding(topo, "s", "t", [("s", "b", "t")]) \
            == ["s", "a", "t"]
        # One tree per (source, view, links, windows), and equal views
        # share theirs however they are spelled.
        assert len(_spf_cache[topo][1]) == 5
        assert _cached_tree(topo, "s", set(via_a)) is _cached_tree(
            topo, "s", via_a)

    def test_fail_link_invalidates(self):
        net = Network(diamond())
        topo = net.topology
        tree = _cached_tree(topo, "s", None)
        net.fail_link("s", "a")
        assert _cached_tree(topo, "s", None) is not tree
        assert _spf_cache[topo][0] == topo.version

    def test_metric_edit_with_bump_version_invalidates(self):
        topo = diamond()
        first = shortest_path_avoiding(topo, "s", "t")
        via = first[1]
        topo.link("s", via).metric = 100.0
        topo.bump_version()
        other = "b" if via == "a" else "a"
        assert shortest_path_avoiding(topo, "s", "t") == ["s", other, "t"]


class TestShortestPathAvoiding:
    def test_plain_shortest_path(self):
        path = shortest_path_avoiding(chain(4), "r1", "r4")
        assert path == ["r1", "r2", "r3", "r4"]

    def test_unreachable_returns_none(self):
        topo = Topology()
        topo.add_router("a")
        topo.add_router("b")
        assert shortest_path_avoiding(topo, "a", "b") is None

    def test_link_exclusion_forces_detour(self):
        topo = diamond()
        direct = shortest_path_avoiding(topo, "s", "t")
        assert direct is not None
        via = direct[1]
        other = "b" if via == "a" else "a"
        detour = shortest_path_avoiding(topo, "s", "t", [("s", via)])
        assert detour == ["s", other, "t"]

    def test_link_exclusion_can_disconnect(self):
        topo = chain(3)
        assert shortest_path_avoiding(topo, "r1", "r3",
                                      [("r2", "r3")]) is None

    def test_window_exclusion_reroutes(self):
        topo = abilene()
        seg = ("Denver", "KansasCity", "Indianapolis")
        path = shortest_path_avoiding(topo, "Sunnyvale", "NewYork", [seg])
        assert path is not None
        joined = tuple(path)
        for i in range(len(joined) - 2):
            assert joined[i:i + 3] != seg

    def test_window_exclusion_picks_next_best(self):
        topo = abilene()
        seg = ("Denver", "KansasCity", "Indianapolis")
        path = shortest_path_avoiding(topo, "Sunnyvale", "NewYork", [seg])
        delay = sum(topo.link(a, b).delay for a, b in zip(path, path[1:]))
        assert delay == pytest.approx(0.028)

    def test_window_exclusion_is_directional(self):
        topo = chain(4)
        seg = ("r2", "r3", "r4")
        # Forward direction is blocked (and the chain has no alternative)...
        assert shortest_path_avoiding(topo, "r1", "r4", [seg]) is None
        # ...but the reverse direction is not this segment.
        assert shortest_path_avoiding(topo, "r4", "r1", [seg]) == \
            ["r4", "r3", "r2", "r1"]

    def test_link_up_restriction(self):
        topo = diamond()
        up = {("s", "a"), ("a", "t"), ("a", "s"), ("t", "a")}
        path = shortest_path_avoiding(topo, "s", "t", link_up=up)
        assert path == ["s", "a", "t"]


class TestStaticRoutes:
    def test_tables_installed_for_all_pairs(self):
        net = Network(chain(4))
        install_static_routes(net)
        for name, router in net.routers.items():
            others = [r for r in net.topology.routers if r != name]
            for dst in others:
                assert dst in router.forwarding_table

    def test_returned_paths_match_tables(self):
        net = Network(abilene())
        paths = install_static_routes(net)
        for (src, dst), path in paths.items():
            assert net.routers[src].forwarding_table[dst] == [path[1]]

    def test_suspicion_installs_policy_entries(self):
        net = Network(abilene())
        seg = ("Denver", "KansasCity", "Indianapolis")
        paths = install_static_routes(net, suspicions=[seg])
        path = paths[("Sunnyvale", "NewYork")]
        assert "KansasCity" not in path or tuple(path).count("KansasCity") == 0
        # policy entries exist along the constrained path
        for i, hop in enumerate(path[:-1]):
            assert net.routers[hop].policy_table[("Sunnyvale", "NewYork")] \
                == [path[i + 1]]


class TestLinkStateDaemon:
    def make(self, topo=None, **kw):
        net = Network(topo or abilene())
        defaults = dict(spf_delay=1.0, spf_hold=2.0, hello_interval=2.0,
                        boot_spread=5.0, flood_hop_delay=0.01,
                        lsa_refresh=4.0)
        defaults.update(kw)
        routing = LinkStateRouting(net, **defaults)
        routing.start()
        return net, routing

    def test_converges(self):
        net, routing = self.make()
        net.run(40.0)
        assert routing.all_converged()
        assert routing.convergence_time() is not None

    def test_tables_route_correctly_after_convergence(self):
        net, routing = self.make()
        net.run(40.0)
        got = []
        net.routers["NewYork"].register_flow("f", lambda p, t: got.append(p))
        net.routers["Sunnyvale"].originate(
            Packet(src="Sunnyvale", dst="NewYork", flow_id="f"))
        net.run(41.0)
        assert len(got) == 1

    def test_alert_excludes_segment(self):
        net, routing = self.make()
        net.run(40.0)
        seg = ("Denver", "KansasCity", "Indianapolis")
        routing.announce_suspicion("Indianapolis", seg, (0.0, 40.0))
        net.run(60.0)
        # All daemons saw the alert.
        for name in net.topology.routers:
            assert seg in routing.state[name].suspicions
        # Traffic now takes the 28 ms southern path.
        times = []
        net.routers["Sunnyvale"].register_flow(
            "probe", lambda p, t: times.append(t))
        start = net.sim.now
        net.routers["Sunnyvale"].originate(
            Packet(src="Sunnyvale", dst="Sunnyvale", flow_id="probe"))
        got = []
        net.routers["NewYork"].register_flow("f2", lambda p, t: got.append(t))
        send_at = net.sim.now
        net.routers["Sunnyvale"].originate(
            Packet(src="Sunnyvale", dst="NewYork", flow_id="f2", size=100))
        net.run(net.sim.now + 1.0)
        assert got, "packet should still be deliverable"
        assert got[0] - send_at > 0.027  # southern path latency

    def test_spf_respects_delay_timer(self):
        net, routing = self.make(spf_delay=3.0)
        net.run(40.0)
        runs_before = len(routing.spf_runs)
        seg = ("Denver", "KansasCity", "Indianapolis")
        t0 = net.sim.now
        routing.announce_suspicion("Indianapolis", seg, (0.0, 40.0))
        net.run(60.0)
        new_runs = [t for t, _ in routing.spf_runs[runs_before:]]
        assert new_runs
        assert min(new_runs) >= t0 + 3.0

    def test_alert_flood_reaches_everyone_once(self):
        net, routing = self.make()
        net.run(40.0)
        routing.announce_suspicion("Denver", ("a", "b", "c"), (0.0, 1.0))
        net.run(45.0)
        seen = [name for name in net.topology.routers
                if ("a", "b", "c") in routing.state[name].suspicions]
        assert len(seen) == len(net.topology.routers)
