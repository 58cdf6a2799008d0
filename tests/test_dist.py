"""Unit tests for sync, robust flooding and signed consensus."""

import pytest

from repro.crypto.keys import KeyInfrastructure
from repro.dist.broadcast import robust_flood
from repro.dist.consensus import (
    ChainedValue,
    Equivocator,
    Silent,
    SignedConsensus,
)
from repro.dist.sync import ClockModel, RoundSchedule
from repro.crypto.signatures import Signed
from repro.net.adversary import ControlSuppressionAttack
from repro.net.router import Network
from repro.net.topology import chain, diamond
from tests.consensus_adversaries import (
    FORGED,
    Forger,
    Replayer,
    SelectiveRelay,
    decisions,
    reference_decisions,
)


class TestClockModel:
    def test_offsets_bounded(self):
        clock = ClockModel(epsilon=0.005, seed=3)
        for name in ("a", "b", "c", "router-17"):
            assert abs(clock.offset(name)) <= 0.005

    def test_offsets_deterministic(self):
        a = ClockModel(epsilon=0.01, seed=1)
        b = ClockModel(epsilon=0.01, seed=1)
        assert a.offset("r") == b.offset("r")

    def test_zero_epsilon(self):
        clock = ClockModel(epsilon=0.0)
        assert clock.offset("anything") == 0.0

    def test_roundtrip(self):
        clock = ClockModel(epsilon=0.01, seed=2)
        local = clock.local_time("r", 100.0)
        assert clock.true_time("r", local) == pytest.approx(100.0)

    def test_max_skew(self):
        assert ClockModel(epsilon=0.003).max_skew() == pytest.approx(0.006)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            ClockModel(epsilon=-1.0)

    def test_offset_follows_seed_and_epsilon_changes(self):
        """The per-router hash is remembered; what it is keyed on is not
        allowed to go stale."""
        clock = ClockModel(epsilon=0.01, seed=1)
        first = clock.offset("r")
        assert ClockModel(epsilon=0.01, seed=2).offset("r") != first
        clock.seed = 2
        assert clock.offset("r") == ClockModel(epsilon=0.01, seed=2).offset("r")
        clock.seed, clock.epsilon = 1, 0.02
        assert clock.offset("r") == pytest.approx(2 * first)
        assert ClockModel(epsilon=0.01, seed=1.0).offset("r") != first


class TestRoundSchedule:
    def test_round_of(self):
        sched = RoundSchedule(tau=5.0)
        assert sched.round_of(0.0) == 0
        assert sched.round_of(4.999) == 0
        assert sched.round_of(5.0) == 1

    def test_interval(self):
        sched = RoundSchedule(tau=2.0, start=1.0)
        assert sched.interval(3) == (7.0, 9.0)
        assert sched.round_end(3) == 9.0

    def test_contains(self):
        sched = RoundSchedule(tau=2.0)
        assert sched.contains(1, 2.5)
        assert not sched.contains(1, 4.0)

    def test_tau_validated(self):
        with pytest.raises(ValueError):
            RoundSchedule(tau=0.0)


class TestRobustFlood:
    def test_reaches_all_routers(self):
        net = Network(chain(5))
        result = robust_flood(net, "r1", "hello")
        net.run(2.0)
        assert all(result.reached(r) for r in net.topology.routers)

    def test_survives_suppression_given_path_diversity(self):
        net = Network(diamond())
        # 'a' suppresses relays, but s-b-t keeps everyone connected.
        net.routers["a"].compromise = ControlSuppressionAttack()
        result = robust_flood(net, "s", "msg")
        net.run(2.0)
        assert result.reached("t")
        assert result.reached("b")

    def test_suppression_on_cut_vertex_partitions(self):
        net = Network(chain(3))
        net.routers["r2"].compromise = ControlSuppressionAttack()
        result = robust_flood(net, "r1", "msg")
        net.run(2.0)
        assert result.reached("r2")  # receives, refuses to relay
        assert not result.reached("r3")

    def test_verify_rejects_altered_copies(self):
        keys = KeyInfrastructure()
        signed = Signed.sign("payload", "r1", keys.signing_key("r1"))
        net = Network(diamond())

        class Corruptor(ControlSuppressionAttack):
            def on_control(self, router, src, dst, message):
                return Signed(payload="evil", signer="r1", mac=message.mac)

        net.routers["a"].compromise = Corruptor()
        result = robust_flood(
            net, "s", signed,
            verify=lambda m: isinstance(m, Signed)
            and m.verify(keys.signing_key(m.signer)),
        )
        net.run(2.0)
        assert result.reached("t")
        assert result.delivered["t"].payload == "payload"

    def test_on_deliver_callback(self):
        net = Network(chain(3))
        seen = []
        robust_flood(net, "r1", 42,
                     on_deliver=lambda at, msg, t: seen.append((at, msg)))
        net.run(1.0)
        assert ("r3", 42) in seen


class TestSignedConsensus:
    def members(self):
        return ["a", "b", "c", "d"]

    def test_all_honest_agree_on_inputs(self):
        keys = KeyInfrastructure()
        cons = SignedConsensus(self.members(), keys, max_faults=1)
        results = cons.run({"a": 1, "b": 2, "c": 3, "d": 4})
        vectors = {r.agreed_vector() for r in results.values()}
        assert len(vectors) == 1
        assert results["a"].values == {"a": 1, "b": 2, "c": 3, "d": 4}

    def test_silent_member_decided_bottom(self):
        keys = KeyInfrastructure()
        cons = SignedConsensus(self.members(), keys, max_faults=1)
        results = cons.run({"a": 1, "b": 2, "c": 3}, faulty={"d": Silent()})
        for r in results.values():
            assert r.values["d"] is None
            assert "d" in r.silent

    def test_equivocator_detected_and_agreed_bottom(self):
        keys = KeyInfrastructure()
        cons = SignedConsensus(self.members(), keys, max_faults=1)
        results = cons.run({"a": 1, "b": 2, "c": 3},
                           faulty={"d": Equivocator("x", "y")})
        vectors = {r.agreed_vector() for r in results.values()}
        assert len(vectors) == 1
        for r in results.values():
            assert "d" in r.equivocators
            assert r.values["d"] is None

    def test_two_faults_with_enough_rounds(self):
        keys = KeyInfrastructure()
        members = ["a", "b", "c", "d", "e"]
        cons = SignedConsensus(members, keys, max_faults=2)
        results = cons.run({"a": 1, "b": 2, "c": 3},
                           faulty={"d": Equivocator(7, 8), "e": Silent()})
        vectors = {r.agreed_vector() for r in results.values()}
        assert len(vectors) == 1

    def test_duplicate_members_rejected(self):
        with pytest.raises(ValueError):
            SignedConsensus(["a", "a"], KeyInfrastructure())

    def test_chain_forgery_rejected(self):
        keys = KeyInfrastructure()
        honest = Signed.sign("v", "a", keys.signing_key("a"))
        cv = ChainedValue(honest)
        # A chain "extended" with a wrong key fails validation.
        bad_link = Signed.sign(("a", honest.mac), "b",
                               KeyInfrastructure(b"other").signing_key("b"))
        forged = ChainedValue(honest, (bad_link,))
        assert not forged.valid(keys, round_index=1)

    def test_chain_extension_valid(self):
        keys = KeyInfrastructure()
        honest = Signed.sign("v", "a", keys.signing_key("a"))
        cv = ChainedValue(honest).extend("b", keys)
        assert cv.valid(keys, round_index=1)
        assert cv.signers() == ("a", "b")

    def test_duplicate_signer_in_chain_invalid(self):
        keys = KeyInfrastructure()
        honest = Signed.sign("v", "a", keys.signing_key("a"))
        cv = ChainedValue(honest).extend("b", keys).extend("b", keys)
        assert not cv.valid(keys, round_index=2)


class TestConsensusUnderRelayingAdversaries:
    """Hostile inboxes: ``run`` rejects on the signer chain and the slot
    before it verifies a signature, and must decide what validate-first
    decides."""

    members = ["a", "b", "c", "d"]
    inputs = {"a": 1, "b": 2, "c": 3}

    def run_both(self, faulty, members=None, max_faults=1):
        members = members or self.members
        keys = KeyInfrastructure()
        inputs = {m: v for m, v in self.inputs.items() if m not in faulty}
        results = SignedConsensus(members, keys, max_faults).run(
            inputs, faulty=faulty)
        assert decisions(results) == reference_decisions(
            members, keys, max_faults, inputs, faulty)
        return results

    @pytest.mark.parametrize("members", [["d", "a", "b", "c"],
                                         ["a", "b", "c", "d"]],
                             ids=["forgery-lands-first", "forgery-lands-last"])
    def test_forged_payload_under_an_honest_mac_is_never_decided(self, members):
        results = self.run_both({"d": Forger(dict(self.inputs))},
                                members=members)
        for r in results.values():
            assert r.values == {"a": 1, "b": 2, "c": 3, "d": None}
            assert r.silent == {"d"} and not r.equivocators
            assert FORGED not in r.values.values()

    def test_forger_cannot_frame_an_honest_member_as_equivocator(self):
        results = self.run_both(
            {"c": Forger({"a": 1, "b": 2}), "d": Forger({"a": 1, "b": 2})},
            max_faults=2)
        for r in results.values():
            assert r.values["a"] == 1 and r.values["b"] == 2
            assert not r.equivocators

    def test_replayed_duplicate_and_self_including_chains_change_nothing(self):
        results = self.run_both({"d": Replayer(4)})
        for r in results.values():
            assert r.values == {"a": 1, "b": 2, "c": 3, "d": 4}
            assert not r.equivocators and not r.silent

    def test_selective_sender_is_heard_by_everyone_through_relays(self):
        results = self.run_both({"d": SelectiveRelay(4, favoured={"a"})})
        for r in results.values():
            assert r.values["d"] == 4

    def test_selective_equivocation_needs_the_relay_round(self):
        """d tells a one thing and b another; only relays expose it."""

        class SplitBrain(SelectiveRelay):
            def initial_values(self, member, receivers, keys):
                key = keys.signing_key(member)
                return {"a": [ChainedValue(Signed.sign("x", member, key))],
                        "b": [ChainedValue(Signed.sign("y", member, key))],
                        "c": []}

        results = self.run_both({"d": SplitBrain(None, favoured=set())})
        for r in results.values():
            assert r.values["d"] is None and r.equivocators == {"d"}

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("max_faults", [0, 1, 2])
    def test_all_honest_work_is_one_sign_per_message_one_verify_per_value(
            self, n, max_faults, monkeypatch):
        """n originals + one relay signature per accepted value, and each
        of the n(n-1) delivered originals verified exactly once: 9 + 6 for
        the three-member segments Π2 runs (it was 15 + 30)."""
        calls = {"sign": 0, "verify": 0}
        sign, verify = Signed.sign.__func__, Signed.verify

        def counted_sign(cls, *args):
            calls["sign"] += 1
            return sign(cls, *args)

        def counted_verify(self, key):
            calls["verify"] += 1
            return verify(self, key)

        monkeypatch.setattr(Signed, "sign", classmethod(counted_sign))
        monkeypatch.setattr(Signed, "verify", counted_verify)
        members = [f"r{i}" for i in range(n)]
        results = SignedConsensus(members, KeyInfrastructure(), max_faults).run(
            {m: i for i, m in enumerate(members)})
        assert all(r.values == {m: i for i, m in enumerate(members)}
                   for r in results.values())
        relays = n * (n - 1) if max_faults else 0
        assert calls == {"sign": n + relays, "verify": n * (n - 1)}
