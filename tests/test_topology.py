"""Unit tests for topologies and generators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.topology import (
    Topology,
    abilene,
    chain,
    diamond,
    ebone_like,
    grid,
    ring,
    sprintlink_like,
)


class TestTopologyBasics:
    def test_add_link_creates_both_directions(self):
        topo = Topology()
        topo.add_link("a", "b")
        assert topo.has_link("a", "b")
        assert topo.has_link("b", "a")

    def test_unidirectional_link(self):
        topo = Topology()
        topo.add_link("a", "b", bidirectional=False)
        assert topo.has_link("a", "b")
        assert not topo.has_link("b", "a")

    def test_self_link_rejected(self):
        topo = Topology()
        with pytest.raises(ValueError):
            topo.add_link("a", "a")

    def test_duplicate_link_rejected(self):
        topo = Topology()
        topo.add_link("a", "b")
        with pytest.raises(ValueError):
            topo.add_link("a", "b")

    def test_failed_add_link_leaves_topology_unchanged(self):
        topo = Topology()
        topo.add_link("a", "b", bidirectional=False)
        version = topo.version
        with pytest.raises(ValueError, match="duplicate link a->b"):
            topo.add_link("b", "a")
        assert not topo.has_link("b", "a")
        assert topo.neighbors("b") == []
        assert topo.version == version
        topo.add_link("b", "a", bidirectional=False)
        assert topo.has_link("b", "a")

    def test_degree_stats_of_empty_topology(self):
        assert Topology().degree_stats() == (0.0, 0)

    def test_missing_link_raises(self):
        topo = chain(3)
        with pytest.raises(KeyError):
            topo.link("r1", "r3")

    def test_default_metric_tracks_delay(self):
        topo = Topology()
        topo.add_link("a", "b", delay=0.005)
        assert topo.link("a", "b").metric == pytest.approx(5.0)

    def test_neighbors_and_degree(self):
        topo = diamond()
        assert sorted(topo.neighbors("s")) == ["a", "b"]
        assert topo.degree("s") == 2

    def test_undirected_link_count(self):
        assert chain(4).undirected_link_count() == 3

    def test_contains_and_len(self):
        topo = chain(3)
        assert "r1" in topo
        assert "nope" not in topo
        assert len(topo) == 3


class TestCannedTopologies:
    def test_chain_structure(self):
        topo = chain(5)
        assert len(topo) == 5
        assert topo.has_link("r1", "r2")
        assert not topo.has_link("r1", "r3")

    def test_chain_needs_a_router(self):
        with pytest.raises(ValueError):
            chain(0)

    def test_diamond_two_disjoint_paths(self):
        topo = diamond()
        assert topo.has_link("s", "a") and topo.has_link("a", "t")
        assert topo.has_link("s", "b") and topo.has_link("b", "t")
        assert not topo.has_link("a", "b")

    def test_abilene_size(self):
        topo = abilene()
        assert len(topo) == 11
        assert topo.undirected_link_count() == 14

    def test_abilene_calibrated_delays(self):
        """The Fig 5.7 calibration: 25 ms via Kansas City, 28 ms via LA."""
        topo = abilene()
        primary = ["Sunnyvale", "Denver", "KansasCity", "Indianapolis",
                   "Chicago", "NewYork"]
        alt = ["Sunnyvale", "LosAngeles", "Houston", "Atlanta",
               "WashingtonDC", "NewYork"]
        d1 = sum(topo.link(a, b).delay for a, b in zip(primary, primary[1:]))
        d2 = sum(topo.link(a, b).delay for a, b in zip(alt, alt[1:]))
        assert d1 == pytest.approx(0.025)
        assert d2 == pytest.approx(0.028)


class TestGeneratedTopologies:
    def test_sprintlink_like_matches_rocketfuel_statistics(self):
        topo = sprintlink_like()
        assert len(topo) == 315
        assert topo.undirected_link_count() == 972
        mean_degree, max_degree = topo.degree_stats()
        assert mean_degree == pytest.approx(2 * 972 / 315)
        assert max_degree <= 45

    def test_ebone_like_matches_rocketfuel_statistics(self):
        topo = ebone_like()
        assert len(topo) == 87
        assert topo.undirected_link_count() == 161
        _, max_degree = topo.degree_stats()
        assert max_degree <= 11

    def test_generated_topologies_connected(self):
        assert sprintlink_like().is_connected()
        assert ebone_like().is_connected()

    def test_generator_deterministic(self):
        a = sprintlink_like(seed=5)
        b = sprintlink_like(seed=5)
        assert sorted((l.src, l.dst) for l in a.links()) == \
            sorted((l.src, l.dst) for l in b.links())

    def test_generator_seed_changes_graph(self):
        a = {(l.src, l.dst) for l in ebone_like(seed=1).links()}
        b = {(l.src, l.dst) for l in ebone_like(seed=2).links()}
        assert a != b


class TestGraphQueries:
    def test_chain_betweenness(self):
        assert chain(5).betweenness() == {
            "r1": 0.0, "r2": 0.5, "r3": 2 / 3, "r4": 0.5, "r5": 0.0}

    def test_articulation_points(self):
        assert chain(5).articulation_points() == {"r2", "r3", "r4"}
        assert ring(6).articulation_points() == set()
        assert abilene().articulation_points() == set()

    def test_one_way_links_join_routers(self):
        topo = Topology()
        topo.add_link("a", "b", bidirectional=False)
        topo.add_link("c", "b", bidirectional=False)
        assert topo.is_connected()
        assert topo.articulation_points() == {"b"}
        topo.add_router("d")
        assert not topo.is_connected()

    def test_empty_and_tiny_topologies(self):
        assert Topology().is_connected()
        assert Topology().betweenness() == {}
        pair = chain(2)
        assert pair.betweenness() == {"r1": 0.0, "r2": 0.0}
        assert pair.articulation_points() == set()


@pytest.fixture(scope="module")
def nx():
    """The oracle: ``networkx``, a test-only dependency."""
    return pytest.importorskip("networkx")


def _networkx_view(nx, topo):
    """The undirected ``nx.Graph`` of *topo*: routers, then links, in order."""
    graph = nx.Graph()
    graph.add_nodes_from(topo.routers)
    graph.add_edges_from(link.ends for link in topo.links())
    return graph


@st.composite
def topologies(draw):
    """1-30 routers, one- and two-way links, isolated routers and islands."""
    n = draw(st.integers(1, 30))
    names = draw(st.lists(st.text("abcdefgh", min_size=1, max_size=3),
                          min_size=n, max_size=n, unique=True))
    topo = Topology()
    for name in names:
        topo.add_router(name)
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names),
                      st.booleans())
    for a, b, both_ways in draw(st.lists(pairs, max_size=3 * n)):
        if a == b or topo.has_link(a, b) or topo.has_link(b, a):
            continue
        topo.add_link(a, b, bidirectional=both_ways)
    return topo


class TestNetworkxOracle:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(topologies())
    def test_graph_queries_match_networkx(self, nx, topo):
        graph = _networkx_view(nx, topo)
        expected = nx.betweenness_centrality(graph)
        got = topo.betweenness()
        assert got == expected
        assert list(got) == list(expected)
        assert topo.articulation_points() == set(nx.articulation_points(graph))
        assert topo.is_connected() == nx.is_connected(graph)

    @pytest.mark.parametrize("build", [
        abilene, ebone_like, sprintlink_like, lambda: grid(3, 3),
        lambda: grid(2, 4), lambda: ring(8)])
    def test_catalogue_topologies_match_networkx(self, nx, build):
        topo = build()
        graph = _networkx_view(nx, topo)
        assert graph.number_of_edges() == topo.undirected_link_count()
        assert topo.betweenness() == nx.betweenness_centrality(graph)
        assert topo.articulation_points() == set(nx.articulation_points(graph))
        assert topo.is_connected() is True
