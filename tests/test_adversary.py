"""Unit tests for the adversarial behaviours (§2.2.1 taxonomy)."""

import pytest

from repro.net.adversary import (
    CombinedCompromise,
    ControlSuppressionAttack,
    DelayAttack,
    DropAllAttack,
    DropFlowAttack,
    DropFractionAttack,
    FabricateAttack,
    MisrouteAttack,
    ModifyAttack,
    QueueConditionalDropAttack,
    ReorderAttack,
    SynDropAttack,
)
from repro.net.packet import Packet, PacketKind
from repro.net.router import ForwardAction, Network
from repro.net.routing import install_static_routes
from repro.net.topology import MBPS, Topology, chain, diamond


def make_net(n=3):
    net = Network(chain(n, bandwidth=10 * MBPS, delay=0.001))
    install_static_routes(net)
    return net


def run_flow(net, count=50, flow="f", src="r1", dst=None):
    dst = dst or f"r{len(net.topology)}"
    got = []
    net.routers[dst].register_flow(flow, lambda p, t: got.append(p))
    for i in range(count):
        net.routers[src].originate(
            Packet(src=src, dst=dst, flow_id=flow, seq=i,
                   payload=f"{flow}:{i}".encode())
        )
    net.run(5.0)
    return got


class TestDropAttacks:
    def test_drop_all(self):
        net = make_net()
        attack = DropAllAttack()
        net.routers["r2"].compromise = attack
        got = run_flow(net)
        assert got == []
        assert len(attack.dropped) == 50
        assert len(attack.drop_times) == 50

    def test_drop_fraction_approximate(self):
        net = make_net()
        attack = DropFractionAttack(0.3, seed=1)
        net.routers["r2"].compromise = attack
        got = []
        net.routers["r3"].register_flow("f", lambda p, t: got.append(p))
        for i in range(400):  # paced so the source queue never overflows
            net.sim.schedule_at(
                i * 0.002, net.routers["r1"].originate,
                Packet(src="r1", dst="r3", flow_id="f", seq=i))
        net.run(5.0)
        assert len(attack.dropped) == pytest.approx(120, rel=0.3)
        assert len(got) == 400 - len(attack.dropped)

    def test_drop_fraction_validates(self):
        with pytest.raises(ValueError):
            DropFractionAttack(1.5)

    def test_drop_flow_selective(self):
        net = make_net()
        attack = DropFlowAttack(["victim"], fraction=1.0)
        net.routers["r2"].compromise = attack
        victim = []
        bystander = []
        net.routers["r3"].register_flow("victim",
                                        lambda p, t: victim.append(p))
        net.routers["r3"].register_flow("other",
                                        lambda p, t: bystander.append(p))
        for i in range(20):
            net.routers["r1"].originate(
                Packet(src="r1", dst="r3", flow_id="victim", seq=i))
            net.routers["r1"].originate(
                Packet(src="r1", dst="r3", flow_id="other", seq=i))
        net.run(5.0)
        assert victim == []
        assert len(bystander) == 20

    def test_activation_window(self):
        net = make_net()
        attack = DropAllAttack().activate_between(10.0, 20.0)
        net.routers["r2"].compromise = attack
        got = run_flow(net)  # runs during [0, 5]
        assert len(got) == 50
        assert attack.dropped == []
        assert [attack.active_at(t) for t in (9.9, 10.0, 20.0, 20.1)] == [
            False, True, True, False]

    def test_syn_drop_only_matches_syns(self):
        net = make_net()
        attack = SynDropAttack("r3")
        net.routers["r2"].compromise = attack
        got = []
        net.routers["r3"].register_flow("f", lambda p, t: got.append(p))
        net.routers["r1"].originate(
            Packet(src="r1", dst="r3", flow_id="f", kind=PacketKind.SYN,
                   size=40))
        net.routers["r1"].originate(
            Packet(src="r1", dst="r3", flow_id="f", kind=PacketKind.DATA))
        net.run(2.0)
        assert len(got) == 1
        assert got[0].kind is PacketKind.DATA
        assert len(attack.dropped) == 1

    def test_syn_drop_max_drops(self):
        net = make_net()
        attack = SynDropAttack("r3", max_drops=1)
        net.routers["r2"].compromise = attack
        got = []
        net.routers["r3"].register_flow("f", lambda p, t: got.append(p))
        for i in range(3):
            net.routers["r1"].originate(
                Packet(src="r1", dst="r3", flow_id="f",
                       kind=PacketKind.SYN, size=40, seq=i))
        net.run(2.0)
        assert len(got) == 2


class TestQueueConditionalAttacks:
    def test_requires_fill_level(self):
        net = Network(chain(3, bandwidth=1 * MBPS, delay=0.001,
                            queue_limit=5_000))
        install_static_routes(net)
        attack = QueueConditionalDropAttack(["f"], fill_threshold=0.5)
        net.routers["r2"].compromise = attack
        # Send slowly: queue never half-full -> no malicious drops.
        for i in range(10):
            net.sim.schedule_at(i * 0.1, net.routers["r1"].originate,
                                Packet(src="r1", dst="r3", flow_id="f", seq=i))
        net.run(3.0)
        assert attack.dropped == []

    def test_drops_when_queue_fills(self):
        # Fast ingress, slow egress: r2's output queue is the bottleneck.
        topo = Topology()
        topo.add_link("r1", "r2", bandwidth=10 * MBPS, delay=0.001)
        topo.add_link("r2", "r3", bandwidth=1 * MBPS, delay=0.001,
                      queue_limit=5_000)
        net = Network(topo)
        install_static_routes(net)
        attack = QueueConditionalDropAttack(["f"], fill_threshold=0.5)
        net.routers["r2"].compromise = attack
        for i in range(30):  # burst fills r2's slow output queue
            net.routers["r1"].originate(
                Packet(src="r1", dst="r3", flow_id="f", seq=i))
        net.run(3.0)
        assert attack.dropped


class TestTransformAttacks:
    def test_modify_corrupts_payload(self):
        net = make_net()
        attack = ModifyAttack(fraction=1.0)
        net.routers["r2"].compromise = attack
        got = run_flow(net, count=5)
        assert len(got) == 5
        assert all(p.payload.endswith(b"!tampered") for p in got)
        assert len(attack.modified) == 5

    def test_modify_fraction_zero_is_noop(self):
        net = make_net()
        net.routers["r2"].compromise = ModifyAttack(fraction=0.0)
        got = run_flow(net, count=5)
        assert all(not p.payload.endswith(b"!tampered") for p in got)

    def test_reorder_delays_every_nth(self):
        net = make_net()
        attack = ReorderAttack(period=3, hold=0.05)
        net.routers["r2"].compromise = attack
        got = run_flow(net, count=9)
        assert len(got) == 9
        seqs = [p.seq for p in got]
        assert seqs != sorted(seqs)
        assert len(attack.delayed) == 3

    def test_reorder_period_validated(self):
        with pytest.raises(ValueError):
            ReorderAttack(period=1)

    def test_delay_adds_latency(self):
        net = make_net()
        net.routers["r2"].compromise = DelayAttack(0.5)
        times = []
        net.routers["r3"].register_flow("f", lambda p, t: times.append(t))
        net.routers["r1"].originate(Packet(src="r1", dst="r3", flow_id="f"))
        net.run(2.0)
        assert times[0] > 0.5

    def test_misroute_diverts(self):
        net = Network(diamond())
        install_static_routes(net)
        direct = net.routers["s"].forwarding_table["t"][0]
        wrong = "b" if direct == "a" else "a"
        attack = MisrouteAttack(wrong_nbr=wrong)
        net.routers[direct].compromise = attack
        # s -> direct -> t normally; compromised 'direct' sends it back out
        # toward 'wrong'... which it has no link to, so the packet dies.
        got = []
        net.routers["t"].register_flow("f", lambda p, t: got.append(p))
        net.routers["s"].originate(Packet(src="s", dst="t", flow_id="f"))
        net.run(2.0)
        assert len(attack.misrouted) == 1


class TestFabrication:
    def test_fabricates_at_rate(self):
        net = make_net()
        attack = FabricateAttack(net, "r2", "r3", forged_src="r1",
                                 forged_dst="r3", flow_id="forged",
                                 rate_pps=10)
        net.routers["r2"].compromise = attack
        attack.start(at=0.0)
        got = []
        net.routers["r3"].register_flow("forged", lambda p, t: got.append(p))
        net.run(2.05)
        assert len(attack.fabricated) == pytest.approx(20, abs=2)
        assert len(got) == len(attack.fabricated)
        assert all(p.src == "r1" for p in got)  # forged provenance


class TestControlSuppression:
    def test_suppresses_control_messages(self):
        net = make_net()
        attack = ControlSuppressionAttack()
        net.routers["r2"].compromise = attack
        delivered = []
        net.send_control("r1", "r3", "hello", delivered.append,
                         via_path=("r1", "r2", "r3"))
        net.run(1.0)
        assert delivered == []
        assert attack.suppressed_control == 1

    def test_match_filter(self):
        net = make_net()
        attack = ControlSuppressionAttack(match=lambda m: m == "secret")
        net.routers["r2"].compromise = attack
        delivered = []
        net.send_control("r1", "r3", "public", delivered.append,
                         via_path=("r1", "r2", "r3"))
        net.send_control("r1", "r3", "secret", delivered.append,
                         via_path=("r1", "r2", "r3"))
        net.run(1.0)
        assert delivered == ["public"]

    def test_without_via_path_untouchable(self):
        net = make_net()
        net.routers["r2"].compromise = ControlSuppressionAttack()
        delivered = []
        net.send_control("r1", "r3", "hello", delivered.append)
        net.run(1.0)
        assert delivered == ["hello"]


class TestCombined:
    def test_combines_drop_and_control_suppression(self):
        net = make_net()
        attack = CombinedCompromise(
            DropFlowAttack(["victim"]),
            ControlSuppressionAttack(),
        )
        net.routers["r2"].compromise = attack
        got = run_flow(net, flow="victim")
        assert got == []
        delivered = []
        net.send_control("r1", "r3", "msg", delivered.append,
                         via_path=("r1", "r2", "r3"))
        net.run(6.0)
        assert delivered == []


    @staticmethod
    def windowed_run(combined_cls):
        """A dropper and a suppressor combined, active 10..20 ms, under
        one packet a millisecond: (when a part gave a verdict, its drops)."""
        net = make_net()
        parts = (DropFlowAttack(["f"], fraction=0.5, seed=3),
                 ControlSuppressionAttack())
        attack = combined_cls(*parts).activate_between(0.01, 0.02)
        asked = []
        for part in parts:
            def spy(router, packet, *rest, verdict=part.verdict):
                asked.append(router.network.sim.now)
                return verdict(router, packet, *rest)
            part.verdict = spy
        net.routers["r2"].compromise = attack
        for i in range(40):
            net.sim.schedule_at(i * 0.001, net.routers["r1"].originate,
                                Packet(src="r1", dst="r3", flow_id="f",
                                       seq=i, payload=b"x"))
        net.run(1.0)
        drops = [([p.seq for p in part.dropped], part.drop_times)
                 for part in parts]
        return asked, drops, [p.seq for p in attack.dropped]

    def test_parts_are_not_asked_outside_the_window(self):
        class EachPartTestsItsWindow(CombinedCompromise):
            """Every packet runs every part's whole ``on_forward``."""

            def on_forward(self, router, packet, in_nbr, out_nbr, iface):
                for part in self.parts:
                    action = part.on_forward(router, packet, in_nbr,
                                             out_nbr, iface)
                    if action.kind == ForwardAction.DROP:
                        self.dropped.append(packet)
                        return action
                return ForwardAction.forward()

        asked, drops, dropped = self.windowed_run(CombinedCompromise)
        asked_alone, drops_alone, dropped_alone = self.windowed_run(
            EachPartTestsItsWindow)
        assert asked and all(0.01 <= now <= 0.02 for now in asked)
        assert asked == asked_alone
        # The same ground truth, part by part.
        assert drops[0][0] and drops == drops_alone
        assert dropped == dropped_alone == drops[0][0]

    def test_the_window_is_the_wholes(self):
        parts = (DropAllAttack(), ControlSuppressionAttack())
        combined = CombinedCompromise(*parts).activate_between(5.0, 6.0)
        assert [(c.active_from, c.active_until)
                for c in (combined, *parts)] == [(5.0, 6.0)] * 3
        with pytest.raises(ValueError, match="not a part"):
            CombinedCompromise(DropAllAttack().activate_between(5.0, 6.0),
                               ControlSuppressionAttack())


class TestForwardActionValues:
    """Verdicts are immutable values; forward/drop allocate nothing."""

    def test_forward_and_drop_are_shared(self):
        assert ForwardAction.forward() is ForwardAction.forward()
        assert ForwardAction.drop() is ForwardAction.drop()
        assert ForwardAction.forward() is not ForwardAction.drop()

    def test_actions_are_immutable(self):
        action = ForwardAction.forward()
        with pytest.raises(AttributeError):
            action.kind = ForwardAction.DROP
        with pytest.raises(AttributeError):
            action.packet = Packet(src="a", dst="b")
        with pytest.raises(AttributeError):
            del action.delay
        assert (action.kind, action.packet, action.out_nbr, action.delay) == (
            ForwardAction.FORWARD, None, None, 0.0)

    def test_modify_misroute_delay_are_fresh(self):
        packet = Packet(src="a", dst="b")
        first, second = ForwardAction.modify(packet), ForwardAction.modify(packet)
        assert first is not second and first.packet is packet
        assert ForwardAction.misroute("x") is not ForwardAction.misroute("x")
        assert ForwardAction.misroute("x").out_nbr == "x"
        assert ForwardAction.delay(0.5) is not ForwardAction.delay(0.5)
        assert ForwardAction.delay(0.5).delay == 0.5
        for action in (first, ForwardAction.misroute("x"),
                       ForwardAction.delay(0.5)):
            assert action.kind == ForwardAction.FORWARD

    def test_combined_run_leaves_the_shared_values_unchanged(self):
        net = Network(diamond(bandwidth=10 * MBPS, delay=0.001))
        install_static_routes(net)
        attack = CombinedCompromise(
            DropFlowAttack(["victim"], fraction=0.5, seed=3),
            ModifyAttack(["tamper"]),
            ReorderAttack(["slow"], period=2, hold=0.01),
        )
        net.routers["a"].compromise = attack
        net.routers["s"].forwarding_table["t"] = ["a"]
        for flow in ("victim", "tamper", "slow", "clean"):
            for i in range(20):
                net.routers["s"].originate(Packet(
                    src="s", dst="t", flow_id=flow, seq=i, payload=b"x",
                    uid=next(net.packet_ids)))
        net.run(2.0)
        assert attack.dropped and attack.parts[1].modified
        assert attack.parts[2].delayed
        forward, drop = ForwardAction.forward(), ForwardAction.drop()
        assert (forward.kind, forward.packet, forward.out_nbr,
                forward.delay) == (ForwardAction.FORWARD, None, None, 0.0)
        assert (drop.kind, drop.packet, drop.out_nbr, drop.delay) == (
            ForwardAction.DROP, None, None, 0.0)
