"""Tests for ZHANG (§3.12), χ's closest prior: the M/M/1/K loss model
and the threshold detector built on it."""

import pytest

from repro.baselines.zhang import ZhangDetector, mm1k_loss_probability
from repro.core.chi import QueueTap
from repro.core.summaries import PathOracle
from repro.net.adversary import DropFlowAttack
from repro.net.router import Network
from repro.net.routing import install_static_routes
from repro.net.topology import MBPS, Topology
from repro.net.traffic import PoissonSource


class TestMM1K:
    def test_zero_arrivals_zero_loss(self):
        assert mm1k_loss_probability(0.0, 100.0, 10) == 0.0

    def test_loss_grows_with_load(self):
        low = mm1k_loss_probability(50, 100, 10)
        high = mm1k_loss_probability(150, 100, 10)
        assert high > low

    def test_loss_shrinks_with_capacity(self):
        small = mm1k_loss_probability(90, 100, 5)
        large = mm1k_loss_probability(90, 100, 50)
        assert large < small

    def test_critical_load(self):
        assert mm1k_loss_probability(100, 100, 9) == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            mm1k_loss_probability(1, 0, 5)
        with pytest.raises(ValueError):
            mm1k_loss_probability(1, 1, 0)


class TestZhangDetector:
    def records(self, tap, lo, hi):
        ins = [r for r in tap.records_in if lo <= r.time < hi]
        outs = [r for r in tap.records_out if lo <= r.time < hi]
        return ins, outs

    def build(self, attack=None):
        topo = Topology("z")
        topo.add_link("s", "r", bandwidth=40 * MBPS, delay=0.001)
        topo.add_link("r", "d", bandwidth=1 * MBPS, delay=0.001,
                      queue_limit=20_000)
        net = Network(topo)
        paths = install_static_routes(net)
        tap = QueueTap(net, PathOracle(paths), "r", "d")
        net.add_tap(tap)
        if attack is not None:
            net.routers["r"].compromise = attack
        return net, tap

    def test_poisson_traffic_within_prediction(self):
        """With genuinely Poisson offered load well below saturation the
        model is honest (near saturation even Poisson trips it)."""
        net, tap = self.build()
        PoissonSource(net, "s", "d", "f", rate_pps=90, duration=20.0,
                      seed=3)
        net.run(22.0)
        detector = ZhangDetector(bandwidth=1 * MBPS, queue_limit=20_000,
                                 tau=2.0)
        alarms = 0
        for k in range(10):
            ins, outs = self.records(tap, k * 2.0, (k + 1) * 2.0)
            verdict = detector.observe_round(k, ins, outs)
            alarms += verdict.alarmed
        assert alarms == 0

    def test_blatant_attack_detected(self):
        net, tap = self.build(DropFlowAttack(["f"], fraction=0.5, seed=1))
        PoissonSource(net, "s", "d", "f", rate_pps=80, duration=10.0, seed=3)
        net.run(12.0)
        detector = ZhangDetector(bandwidth=1 * MBPS, queue_limit=20_000,
                                 tau=2.0)
        alarms = 0
        for k in range(5):
            ins, outs = self.records(tap, k * 2.0, (k + 1) * 2.0)
            alarms += detector.observe_round(k, ins, outs).alarmed
        assert alarms > 0

    def test_model_grants_attacker_headroom_under_tcp(self):
        """The paper's objection (§3.12/§6.1.1): under bursty TCP load
        the model's safety margin is so wide that an attacker gets many
        free drops per round below the alarm threshold — exactly the
        free-drop unsoundness of static thresholds."""
        from repro.net.tcp import TCPFlow
        topo = Topology("z2")
        for s in ("s1", "s2", "s3"):
            topo.add_link(s, "r", bandwidth=40 * MBPS, delay=0.001)
        topo.add_link("r", "d", bandwidth=1 * MBPS, delay=0.002,
                      queue_limit=20_000)
        topo.add_link("d", "sink", bandwidth=40 * MBPS, delay=0.001)
        net = Network(topo)
        paths = install_static_routes(net)
        tap = QueueTap(net, PathOracle(paths), "r", "d")
        net.add_tap(tap)
        for i, s in enumerate(("s1", "s2", "s3")):
            TCPFlow(net, s, "sink", f"tcp{i}", start=0.1 * i)
        net.run(42.0)
        detector = ZhangDetector(bandwidth=1 * MBPS, queue_limit=20_000,
                                 tau=2.0)
        headrooms = []
        for k in range(20):
            ins, outs = self.records(tap, k * 2.0, (k + 1) * 2.0)
            if not ins:
                continue
            verdict = detector.observe_round(k, ins, outs)
            assert not verdict.alarmed  # benign, so no alarm...
            headrooms.append(verdict.threshold - verdict.observed_losses)
        # ...but the attacker-exploitable slack is wide.
        assert sum(headrooms) / len(headrooms) > 5.0
