"""Unit tests for routers, interfaces, taps and the network assembly."""

import cProfile
import hashlib
import pstats
import random

import pytest

from repro.core.summaries import PathOracle, SegmentMonitor
from repro.dist.sync import RoundSchedule
from repro.net.events import Simulator
from repro.net.packet import Packet
from repro.net.queues import DropReason
from repro.net.router import MonitorTap, Network
from repro.net.routing import compute_all_paths, install_static_routes
from repro.net.topology import MBPS, chain, diamond


class RecordingTap(MonitorTap):
    def __init__(self):
        self.events = []

    def on_receive(self, router, from_nbr, packet, time):
        self.events.append(("receive", router.name, from_nbr, packet.uid, time))

    def on_enqueue(self, router, out_nbr, packet, time, occupancy):
        self.events.append(("enqueue", router.name, out_nbr, packet.uid, time))

    def on_transmit(self, router, out_nbr, packet, time):
        self.events.append(("transmit", router.name, out_nbr, packet.uid, time))

    def on_drop(self, router, out_nbr, packet, time, reason, drop_prob):
        self.events.append(("drop", router.name, out_nbr, packet.uid, reason))

    def on_deliver(self, router, packet, time):
        self.events.append(("deliver", router.name, packet.uid, time))

    def on_originate(self, router, packet, time):
        self.events.append(("originate", router.name, packet.uid, time))

    def of_kind(self, kind):
        return [e for e in self.events if e[0] == kind]


def small_net(n=3, **kw):
    topo = chain(n, bandwidth=10 * MBPS, delay=0.001)
    net = Network(topo, **kw)
    install_static_routes(net)
    return net


class TestForwarding:
    def test_end_to_end_delivery(self):
        net = small_net(4)
        delivered = []
        net.routers["r4"].register_flow("f", lambda p, t: delivered.append(p))
        packet = Packet(src="r1", dst="r4", flow_id="f")
        net.routers["r1"].originate(packet)
        net.run(1.0)
        assert [p.uid for p in delivered] == [packet.uid]

    def test_ttl_decremented_per_hop(self):
        net = small_net(4)
        got = []
        net.routers["r4"].register_flow("f", lambda p, t: got.append(p))
        net.routers["r1"].originate(Packet(src="r1", dst="r4", flow_id="f",
                                           ttl=10))
        net.run(1.0)
        # Every forwarding router decrements: r1 (origin), r2 and r3.
        assert got[0].ttl == 7

    def test_expired_ttl_dropped(self):
        net = small_net(4)
        tap = RecordingTap()
        net.add_tap(tap)
        net.routers["r1"].originate(Packet(src="r1", dst="r4", flow_id="f",
                                           ttl=1))
        net.run(1.0)
        drops = tap.of_kind("drop")
        assert len(drops) == 1
        assert drops[0][4] is DropReason.TTL_EXPIRED

    def test_local_delivery_without_forwarding(self):
        net = small_net(3)
        got = []
        net.routers["r1"].register_flow("f", lambda p, t: got.append(p))
        net.routers["r1"].originate(Packet(src="r1", dst="r1", flow_id="f"))
        net.run(0.1)
        assert len(got) == 1

    def test_no_route_drops(self):
        topo = chain(3)
        net = Network(topo)  # no routes installed
        tap = RecordingTap()
        net.add_tap(tap)
        net.routers["r1"].originate(Packet(src="r1", dst="r3", flow_id="f"))
        net.run(0.1)
        assert tap.of_kind("drop")

    def test_latency_matches_links(self):
        net = small_net(3)
        times = []
        net.routers["r3"].register_flow("f", lambda p, t: times.append(t))
        net.routers["r1"].originate(Packet(src="r1", dst="r3", flow_id="f",
                                           size=1000))
        net.run(1.0)
        # two hops: 2 * (transmission 1000B@10Mbps = 0.8ms + 1ms prop)
        assert times[0] == pytest.approx(2 * (0.0008 + 0.001), abs=1e-6)


class TestTaps:
    def test_event_sequence_for_transit(self):
        net = small_net(3)
        tap = RecordingTap()
        net.add_tap(tap)
        net.routers["r1"].originate(Packet(src="r1", dst="r3", flow_id="f"))
        net.run(1.0)
        kinds = [e[0] for e in tap.events]
        assert kinds == [
            "originate",
            "enqueue", "transmit",  # at r1
            "receive", "enqueue", "transmit",  # at r2
            "receive", "deliver",  # at r3
        ]

    def test_remove_tap(self):
        net = small_net(3)
        tap = RecordingTap()
        net.add_tap(tap)
        net.remove_tap(tap)
        net.routers["r1"].originate(Packet(src="r1", dst="r3", flow_id="f"))
        net.run(1.0)
        assert tap.events == []


class TransmitTap(MonitorTap):
    """Overrides one hook: every other hook keeps the base no-op."""

    def __init__(self, log, name="transmit"):
        self.log = log
        self.name = name

    def on_transmit(self, router, out_nbr, packet, time):
        self.log.append((self.name, router.name, packet.uid))


class TransmitAndDeliverTap(TransmitTap):
    def on_deliver(self, router, packet, time):
        self.log.append(("deliver", router.name, packet.uid))


class DuckTap:
    """A tap without the base class, defining two hooks."""

    def __init__(self):
        self.log = []

    def on_receive(self, router, from_nbr, packet, time):
        self.log.append(("receive", router.name))

    def on_originate(self, router, packet, time):
        self.log.append(("originate", router.name))


SITE_HOOKS = ("receive", "enqueue", "transmit")
NETWORK_HOOKS = ("drop", "deliver", "originate")


def per_link(net, hook):
    """``{(router, neighbour): what hook runs there}`` for one of the
    per-link hooks, over every link, keyed as a ``sites`` row names it."""
    lists = {}
    for router in net.routers.values():
        for nbr, iface in router.interfaces.items():
            if hook == "receive":
                lists[nbr, router.name] = net.routers[nbr].receive_taps[
                    router.name]
            else:
                lists[router.name, nbr] = getattr(iface, hook + "_taps")
    return lists


def at_every_link(net, hook, fns):
    """``hook`` runs ``fns`` on each of the network's links."""
    return all(taps == fns for taps in per_link(net, hook).values())


def send(net):
    net.routers["r1"].originate(Packet(src="r1", dst="r3", flow_id="f", uid=1))


class TestTapIndex:
    """``add_tap`` lists a tap only under the hooks it defines."""

    def test_tap_overriding_one_hook_gets_only_that_hook(self):
        net = small_net(3)
        log = []
        tap = TransmitTap(log)
        net.add_tap(tap)
        assert at_every_link(net, "transmit", [tap.on_transmit])
        assert at_every_link(net, "receive", [])
        assert at_every_link(net, "enqueue", [])
        assert net.on_drop == net.on_deliver == net.on_originate == []
        # The per-link hooks have no network-wide list.
        assert not any(hasattr(net, "on_" + hook) for hook in SITE_HOOKS)
        send(net)
        net.run(1.0)
        assert log == [("transmit", "r1", 1), ("transmit", "r2", 1)]

    def test_subclass_of_a_subclass_override_is_honoured(self):
        net = small_net(3)
        log = []
        tap = TransmitAndDeliverTap(log)
        net.add_tap(tap)
        assert at_every_link(net, "transmit", [tap.on_transmit])
        assert net.on_deliver == [tap.on_deliver]
        send(net)
        net.run(1.0)
        assert log == [("transmit", "r1", 1), ("transmit", "r2", 1),
                       ("deliver", "r3", 1)]

    def test_remove_tap_unsubscribes_every_hook(self):
        net = small_net(3)
        tap = RecordingTap()
        net.add_tap(tap)
        assert all(at_every_link(net, hook, [getattr(tap, "on_" + hook)])
                   for hook in SITE_HOOKS)
        assert all(getattr(net, "on_" + hook) == [getattr(tap, "on_" + hook)]
                   for hook in NETWORK_HOOKS)
        net.remove_tap(tap)
        assert all(at_every_link(net, hook, []) for hook in SITE_HOOKS)
        assert all(getattr(net, "on_" + hook) == [] for hook in NETWORK_HOOKS)
        assert net.taps == []

    def test_duck_typed_tap_gets_every_hook_it_defines(self):
        net = small_net(3)
        tap = DuckTap()
        net.add_tap(tap)
        assert at_every_link(net, "receive", [tap.on_receive])
        assert net.on_originate == [tap.on_originate]
        assert at_every_link(net, "transmit", [])
        assert net.on_deliver == []
        send(net)
        net.run(1.0)
        assert tap.log == [("originate", "r1"), ("receive", "r2"),
                           ("receive", "r3")]

    def test_taps_on_one_hook_fire_in_add_tap_order(self):
        net = small_net(3)
        log = []
        net.add_tap(TransmitTap(log, "first"))
        net.add_tap(TransmitTap(log, "second"))
        send(net)
        net.run(1.0)
        assert [entry[0] for entry in log] == ["first", "second"] * 2

    def test_tap_added_mid_run_sees_the_next_event(self):
        net = small_net(3)
        log = []
        late = TransmitTap(log)
        # r1 finishes sending at 0.8 ms; r2 receives at 1.8 ms.
        net.sim.schedule(0.001, net.add_tap, late)
        send(net)
        net.run(1.0)
        assert log == [("transmit", "r2", 1)]

    def test_tap_naming_links_is_called_only_there(self):
        net = small_net(3)
        log = []
        tap = SiteTap(log, [("on_transmit", "r2", "r3"),
                            ("on_receive", "r3", "r2"),
                            ("on_enqueue", "r1", "r2")])
        net.add_tap(tap)
        # Listed at the sites it names and nowhere else; network-wide
        # for the hooks that are not per link.
        listed = {(hook, site) for hook in SITE_HOOKS
                  for site, taps in per_link(net, hook).items() if taps}
        assert listed == {("transmit", ("r2", "r3")),
                          ("receive", ("r3", "r2")),
                          ("enqueue", ("r1", "r2"))}
        assert net.on_deliver == [tap.on_deliver]
        send(net)
        net.routers["r3"].originate(Packet(src="r3", dst="r1",
                                           flow_id="back", uid=2))
        net.run(1.0)
        # The reverse packet crosses none of the named sites.
        assert log == [("on_enqueue", "r1", "r2", 1),
                       ("on_transmit", "r2", "r3", 1),
                       ("on_receive", "r3", "r2", 1)]
        assert tap.delivered == [("r3", 1), ("r1", 2)]  # still everywhere

    def test_site_keeps_add_tap_order_with_taps_called_everywhere(self):
        net = small_net(3)
        log = []
        net.add_tap(TransmitTap(log, "first"))
        net.add_tap(SiteTap(log, [("on_transmit", "r2", "r3")]))
        net.add_tap(TransmitTap(log, "last"))
        send(net)
        net.run(1.0)
        assert [entry[0] for entry in log] == [
            "first", "last",  # r1 -> r2
            "first", "on_transmit", "last"]  # r2 -> r3

    def test_remove_tap_clears_every_site(self):
        net = small_net(3)
        log = []
        everywhere = TransmitTap(log)
        net.add_tap(everywhere)
        tap = SiteTap(log, [("on_transmit", "r2", "r3"),
                            ("on_receive", "r3", "r2"),
                            ("on_enqueue", "r2", "r3")])
        net.add_tap(tap)
        assert tap.network is net
        net.remove_tap(tap)
        assert net.taps == [everywhere]
        for router in net.routers.values():
            for iface in router.interfaces.values():
                assert iface.transmit_taps == [everywhere.on_transmit]
                assert iface.enqueue_taps == []
            assert all(taps == [] for taps in router.receive_taps.values())
        send(net)
        net.run(1.0)
        assert log == [("transmit", "r1", 1), ("transmit", "r2", 1)]

    def test_default_sites_are_every_link_of_each_hook_defined(self):
        net = small_net(3)
        tap = DuckTap()
        rows = list(MonitorTap.sites(tap, net))
        assert {row[:3] for row in rows} == {
            ("on_receive", "r2", "r1"), ("on_receive", "r1", "r2"),
            ("on_receive", "r3", "r2"), ("on_receive", "r2", "r3")}
        assert len(rows) == 4
        assert all(row[3] == tap.on_receive for row in rows)
        assert list(MonitorTap().sites(net)) == []

    def test_tap_naming_no_links_is_called_everywhere(self):
        net = small_net(3)
        tap = RecordingTap()
        net.add_tap(tap)
        net.add_tap(SiteTap([], [("on_transmit", "r1", "r2")]))
        send(net)
        net.run(1.0)
        assert [(e[0], e[1]) for e in tap.events] == [
            ("originate", "r1"), ("enqueue", "r1"), ("transmit", "r1"),
            ("receive", "r2"), ("enqueue", "r2"), ("transmit", "r2"),
            ("receive", "r3"), ("deliver", "r3")]

    def test_a_site_must_be_a_link(self):
        net = small_net(3)
        with pytest.raises(ValueError):
            net.add_tap(SiteTap([], [("on_transmit", "r1", "r3")]))
        with pytest.raises(ValueError):
            net.add_tap(SiteTap([], [("on_drop", "r1", "r2")]))

    def test_a_refused_tap_leaves_the_network_as_it_was(self):
        net = small_net(3)
        first = RecordingTap()
        net.add_tap(first)
        before = {hook: per_link(net, hook) for hook in SITE_HOOKS}
        network_wide = {hook: getattr(net, "on_" + hook)
                        for hook in NETWORK_HOOKS}
        bad = SiteTap([], [("on_transmit", "r1", "r3")])
        bad.on_drop = lambda *args: None
        with pytest.raises(ValueError, match="no on_transmit site at r1"):
            net.add_tap(bad)
        assert net.taps == [first]
        assert {hook: per_link(net, hook) for hook in SITE_HOOKS} == before
        assert {hook: getattr(net, "on_" + hook)
                for hook in NETWORK_HOOKS} == network_wide
        log = []
        net.add_tap(TransmitTap(log))
        assert len(net.taps) == 2
        send(net)
        net.run(1.0)
        assert log == [("transmit", "r1", 1), ("transmit", "r2", 1)]

    def test_watch_segment_after_add_tap_is_seen_by_the_next_hop(self):
        net = small_net(3)
        paths = compute_all_paths(net.topology)
        monitor = SegmentMonitor(net, PathOracle(paths),
                                 RoundSchedule(tau=1.0))
        net.add_tap(monitor)
        # r1 finishes sending at 0.8 ms; r2 receives at 1.8 ms.
        net.sim.schedule(0.001, monitor.watch_segment, ("r1", "r2", "r3"))
        send(net)
        net.run(1.0)
        counts = {key: summary.count for key, summary in
                  monitor.segment_summaries(("r1", "r2", "r3"), 0).items()}
        assert counts == {("r1", "sent"): 0, ("r2", "received"): 1,
                          ("r2", "sent"): 1, ("r3", "received"): 1}


class SiteTap(MonitorTap):
    """Names its links; logs what runs there, and every delivery."""

    def __init__(self, log, sites):
        self.log = log
        self._sites = sites
        self.delivered = []

    def sites(self, network):
        self.network = network
        return [(hook, router, nbr, self._logger(hook))
                for hook, router, nbr in self._sites]

    def _logger(self, hook):
        def log(router, nbr, packet, time, *occupancy):
            self.log.append((hook, router.name, nbr, packet.uid))
        return log

    def on_deliver(self, router, packet, time):
        self.delivered.append((router.name, packet.uid))


class EnqueueTimes(MonitorTap):
    def __init__(self):
        self.times = []

    def on_enqueue(self, router, out_nbr, packet, time, occupancy):
        self.times.append((router.name, packet.uid, time))


class TestJitterDraw:
    """The jitter is ``proc_jitter * rng.random()``: the same float as
    ``rng.uniform(0.0, proc_jitter)``, without the extra call."""

    @pytest.mark.parametrize("jitter", [1e-6, 0.0005, 0.002, 0.003, 0.1,
                                        1.0, 7.25])
    def test_scaled_random_is_uniform_bit_for_bit(self, jitter):
        for seed in range(20):
            scaled, uniform = random.Random(seed), random.Random(seed)
            for _ in range(50):
                assert (jitter * scaled.random()).hex() == \
                    uniform.uniform(0.0, jitter).hex()

    # sha256 of repr(EnqueueTimes.times), recorded when the jitter was
    # drawn with rng.uniform(0.0, proc_jitter).
    @pytest.mark.parametrize("seed, digest", [
        (0, "a17a2fbdc30714b4c7d1e9e3071286f3945a8d117957119f46b4c83be09299c3"),
        (7, "987d54efb6e4774789fa9da5addb9019b9d793f6c485f15433496db7a9f2f501"),
    ])
    def test_six_chain_enqueue_times_are_unchanged(self, seed, digest):
        net = Network(chain(6, bandwidth=10 * MBPS, delay=0.001),
                      proc_jitter=0.003, seed=seed)
        install_static_routes(net)
        tap = EnqueueTimes()
        net.add_tap(tap)
        for i in range(30):
            net.sim.schedule(i * 0.0004, net.routers["r1"].originate,
                             Packet(src="r1", dst="r6", flow_id="f", seq=i,
                                    uid=i + 1))
        net.run(1.0)
        assert len(tap.times) == 150
        assert hashlib.sha256(repr(tap.times).encode()).hexdigest() == digest


class TestPolicyRouting:
    def test_policy_table_overrides_destination_table(self):
        net = Network(diamond())
        install_static_routes(net)
        router = net.routers["s"]
        default_hop = router.next_hop(Packet(src="s", dst="t"))
        other = "b" if default_hop == "a" else "a"
        router.policy_table[("s", "t")] = [other]
        assert router.next_hop(Packet(src="s", dst="t")) == other

    def test_policy_only_matches_exact_pair(self):
        net = Network(diamond())
        install_static_routes(net)
        router = net.routers["s"]
        router.policy_table[("x", "t")] = ["b"]
        packet = Packet(src="s", dst="t")
        assert router.next_hop(packet) == \
            router.forwarding_table["t"][0]

    def test_ecmp_choice_is_deterministic(self):
        net = Network(diamond())
        install_static_routes(net)
        router = net.routers["s"]
        router.forwarding_table["t"] = ["a", "b"]
        packet = Packet(src="s", dst="t", flow_id="flow-x")
        hops = {router.next_hop(packet) for _ in range(10)}
        assert len(hops) == 1

    def test_ecmp_spreads_flows(self):
        net = Network(diamond())
        install_static_routes(net)
        router = net.routers["s"]
        router.forwarding_table["t"] = ["a", "b"]
        chosen = {
            router.next_hop(Packet(src="s", dst="t", flow_id=f"f{i}"))
            for i in range(50)
        }
        assert chosen == {"a", "b"}

    @pytest.mark.parametrize("tables", [
        {},  # the installed single next hop
        {"forwarding": ["a", "b"]},  # ECMP
        {"forwarding": ["b", "a"]},
        {"policy": ["b"]},  # a policy route for (s, t)
        {"policy": ["b", "a"]},  # a policy ECMP route
        {"other_policy": ["b"]},  # policy routes, none for (s, t)
        {"forwarding": []},  # no route
    ])
    def test_route_takes_the_hop_next_hop_picks(self, tables):
        net = Network(diamond())
        install_static_routes(net)
        router = net.routers["s"]
        if "forwarding" in tables:
            router.forwarding_table["t"] = tables["forwarding"]
        if "policy" in tables:
            router.policy_table[("s", "t")] = tables["policy"]
        if "other_policy" in tables:
            router.policy_table[("x", "t")] = tables["other_policy"]
        taken = []
        router._enqueue_toward = lambda packet, out_nbr: taken.append(out_nbr)
        for i in range(20):
            packet = Packet(src="s", dst="t", flow_id=f"f{i}")
            taken.clear()
            router._route(packet, incoming=None, allow_compromise=False)
            assert taken == ([] if router.next_hop(packet) is None
                             else [router.next_hop(packet)])


class TestCompromiseHook:
    def test_drop_action(self):
        from repro.net.adversary import DropAllAttack
        net = small_net(3)
        tap = RecordingTap()
        net.add_tap(tap)
        net.routers["r2"].compromise = DropAllAttack()
        net.routers["r1"].originate(Packet(src="r1", dst="r3", flow_id="f"))
        net.run(1.0)
        drops = tap.of_kind("drop")
        assert len(drops) == 1
        assert drops[0][1] == "r2"
        assert drops[0][4] is DropReason.MALICIOUS

    def test_originating_router_not_intercepted(self):
        """Terminal routers are assumed good w.r.t. their own traffic."""
        from repro.net.adversary import DropAllAttack
        net = small_net(3)
        got = []
        net.routers["r3"].register_flow("f", lambda p, t: got.append(p))
        net.routers["r1"].compromise = DropAllAttack()
        net.routers["r1"].originate(Packet(src="r1", dst="r3", flow_id="f"))
        net.run(1.0)
        assert len(got) == 1

    def test_fabricated_injection(self):
        net = small_net(3)
        got = []
        net.routers["r3"].register_flow("forged", lambda p, t: got.append(p))
        packet = Packet(src="r1", dst="r3", flow_id="forged")
        net.routers["r2"].inject_fabricated(packet, "r3")
        net.run(1.0)
        assert len(got) == 1
        assert got[0].fabricated_by == "r2"


class TestSerialization:
    def test_queue_drains_at_link_rate(self):
        topo = chain(2, bandwidth=1 * MBPS, delay=0.0)
        net = Network(topo)
        install_static_routes(net)
        times = []
        net.routers["r2"].register_flow("f", lambda p, t: times.append(t))
        for i in range(3):
            net.routers["r1"].originate(
                Packet(src="r1", dst="r2", flow_id="f", seq=i, size=1000)
            )
        net.run(1.0)
        # back-to-back transmissions: 8 ms apart at 1 Mbps
        assert times[1] - times[0] == pytest.approx(0.008, abs=1e-6)
        assert times[2] - times[1] == pytest.approx(0.008, abs=1e-6)

    def test_proc_jitter_bounded(self):
        net = small_net(3, proc_jitter=0.002)
        times = []
        net.routers["r3"].register_flow("f", lambda p, t: times.append(t))
        for i in range(20):
            net.routers["r1"].originate(
                Packet(src="r1", dst="r3", flow_id="f", seq=i)
            )
        net.run(2.0)
        assert len(times) == 20


class TestHopWork:
    """The forwarding path's Python work, counted rather than timed, so
    it reads the same on any host: a seed-0 droptail χ run under
    cProfile, its total calls and dispatched events per hop (one hop is
    one ``Router._enqueue_toward``)."""

    #: Measured when the per-hop helpers were folded (45.09 before).
    CALLS_PER_HOP = 37.74

    @staticmethod
    def profiled_run():
        from repro.eval.experiments import run_testbed
        from repro.eval.specs import AdversarySpec, droptail_spec

        spec = droptail_spec(
            n_sources=2, seed=0,
            adversary=AdversarySpec("drop", 0.3, options={"flows": ["tcp1"]}),
            learning_until=5.0, first_round=3, rounds=6, attack_at=8.0,
            end=14.0)
        run_testbed("hop-work", spec)  # warm: imports and caches
        profile = cProfile.Profile()
        before = Simulator.dispatched_total
        profile.enable()
        result = run_testbed("hop-work", spec)
        profile.disable()
        stats = pstats.Stats(profile)
        hops = sum(row[1] for (_, _, name), row in stats.stats.items()
                   if name == "_enqueue_toward")
        return (result, stats.total_calls, hops,
                Simulator.dispatched_total - before)

    def test_calls_and_events_per_hop_hold(self):
        result, calls, hops, dispatched = self.profiled_run()
        assert result.detected
        # Every event of the run stays: the same hops, the same dispatches.
        assert (hops, dispatched) == (10472, 31344)
        assert calls / hops <= self.CALLS_PER_HOP + 1, calls / hops
