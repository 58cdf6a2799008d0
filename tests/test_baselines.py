"""Tests for the Chapter 3 literature baselines."""

import pytest

from repro.baselines.awerbuch import awerbuch_binary_search
from repro.baselines.pathmodel import FaultyNode, PathModel
from repro.baselines.perlman import perlman_per_hop_acks, perlman_route_setup
from repro.baselines.sectrace import secure_traceroute
from repro.baselines.watchers import (
    WatchersFault,
    WatchersFlow,
    WatchersProtocol,
)
from repro.net.topology import chain


def dropper():
    return FaultyNode(drop_data=lambda r, p: True)


class TestPathModel:
    def path(self, faulty=None):
        return PathModel(["a", "b", "c", "d", "e"], faulty or {})

    def test_clean_delivery(self):
        reached, payload = self.path().send_data(0, "m")
        assert reached is None
        assert payload == "m"

    def test_dropper_index_reported(self):
        model = self.path({"c": dropper()})
        reached, _ = model.send_data(0, "m")
        assert reached == 2  # c's index

    def test_terminal_routers_never_drop(self):
        model = self.path({"a": dropper(), "e": dropper()})
        reached, _ = model.send_data(0, "m")
        assert reached is None

    def test_corruption(self):
        model = self.path({"b": FaultyNode(corrupt=lambda p: "evil")})
        reached, payload = model.send_data(0, "m")
        assert reached is None
        assert payload == "evil"

    def test_activation_round(self):
        node = FaultyNode(drop_data=lambda r, p: True, active_from_round=3)
        model = self.path({"c": node})
        assert model.send_data(2, "m")[0] is None
        assert model.send_data(3, "m")[0] == 2

    def test_protocol_suppression_directional(self):
        model = self.path({"c": FaultyNode(
            drop_protocol=lambda r, origin, kind: True)})
        # e -> a ack crosses c: suppressed at index 2
        assert model.send_protocol(0, "e", "ack", 4, 0) == 2
        # a -> b never crosses c
        assert model.send_protocol(0, "a", "setup", 0, 1) is None

    def test_path_validation(self):
        with pytest.raises(ValueError):
            PathModel(["a"])
        with pytest.raises(ValueError):
            PathModel(["a", "b", "a"])


class TestPerlman:
    def test_route_setup_clean(self):
        outcome = perlman_route_setup(PathModel(["a", "b", "c", "d"]))
        assert outcome.delivered
        assert outcome.suspected is None

    def test_route_setup_suspects_whole_path(self):
        model = PathModel(["a", "b", "c", "d"], {"b": dropper()})
        outcome = perlman_route_setup(model)
        assert outcome.suspected == ("a", "b", "c", "d")
        assert not outcome.framing

    def test_per_hop_acks_accurate_without_collusion(self):
        model = PathModel(["a", "b", "c", "d", "e"], {"c": dropper()})
        outcome = perlman_per_hop_acks(model)
        assert "c" in outcome.suspected
        assert not outcome.framing

    def test_fig_3_8_collusion_frames_correct_link(self):
        """Perlman's own argument against PERLMANd (Fig 3.8)."""
        model = PathModel(["a", "b", "c", "d", "e", "f"], {
            "e": dropper(),
            "b": FaultyNode(drop_protocol=lambda r, o, k:
                            o in ("d", "e", "f")),
        })
        outcome = perlman_per_hop_acks(model)
        assert outcome.suspected == ("c", "d")
        assert outcome.framing  # both suspected routers are correct


class TestSecTrace:
    def test_clean_trace_validates_whole_path(self):
        outcome = secure_traceroute(PathModel(["a", "b", "c", "d"]))
        assert outcome.detected_link is None
        assert outcome.validated_prefix == ["a", "b", "c", "d"]

    def test_persistent_dropper_detected_adjacent(self):
        model = PathModel(["a", "b", "c", "d", "e"], {"c": dropper()})
        outcome = secure_traceroute(model)
        assert outcome.detected_link is not None
        assert "c" in outcome.detected_link
        assert not outcome.framing

    def test_fig_3_7_late_attacker_frames_downstream(self):
        model = PathModel(["a", "b", "c", "d", "e"], {
            "b": FaultyNode(drop_data=lambda r, p: True,
                            active_from_round=3)})
        outcome = secure_traceroute(model)
        assert outcome.framing
        assert "b" not in outcome.detected_link

    def test_report_suppression_fails_round(self):
        model = PathModel(["a", "b", "c", "d"], {
            "b": FaultyNode(drop_protocol=lambda r, o, k: k == "report")})
        outcome = secure_traceroute(model)
        assert outcome.detected_link is not None


class TestAwerbuch:
    def test_clean_path_no_detection(self):
        outcome = awerbuch_binary_search(PathModel(
            [f"n{i}" for i in range(8)]))
        assert outcome.detected_link is None

    def test_localizes_in_log_rounds(self):
        import math
        for bad_index in (1, 3, 5, 6):
            path = [f"n{i}" for i in range(8)]
            model = PathModel(path, {path[bad_index]: dropper()})
            outcome = awerbuch_binary_search(model)
            assert outcome.detected_link is not None
            assert path[bad_index] in outcome.detected_link
            assert outcome.rounds <= math.ceil(math.log2(len(path))) + 1

    def test_longer_paths_take_more_rounds(self):
        short = PathModel([f"n{i}" for i in range(4)],
                          {"n2": dropper()})
        long = PathModel([f"n{i}" for i in range(32)],
                         {"n17": dropper()})
        assert awerbuch_binary_search(long).rounds > \
            awerbuch_binary_search(short).rounds


class TestWatchers:
    def flows(self):
        return [WatchersFlow(("r1", "r2", "r3", "r4", "r5"), 10_000.0)]

    def test_honest_network_no_detections(self):
        report = WatchersProtocol(chain(5), self.flows()).run_round()
        assert report.detections == []
        assert report.inconsistent_links == []

    def test_truthful_dropper_detected_by_cof(self):
        faulty = {"r3": WatchersFault(drop_fraction=lambda f: 0.5)}
        report = WatchersProtocol(chain(5), self.flows(), faulty).run_round()
        assert report.detects_router("r3")
        assert any(d.phase == "cof" for d in report.detections)

    def test_lying_dropper_detected_by_validation(self):
        def inflate(claims):
            return {k: v * 2 if k[1] == "r3" else v
                    for k, v in claims.items()}

        faulty = {"r3": WatchersFault(drop_fraction=lambda f: 0.5,
                                      misreport=inflate)}
        report = WatchersProtocol(chain(5), self.flows(), faulty).run_round()
        assert report.detects_router("r3")

    def test_threshold_tolerates_congestion(self):
        faulty = {"r3": WatchersFault(drop_fraction=lambda f: 0.01)}
        report = WatchersProtocol(chain(5), self.flows(), faulty,
                                  threshold=200.0).run_round()
        assert not report.detections

    def test_consorting_routers_evade_original(self):
        """The Fig 3.3 flaw, reproduced."""
        def inflate(claims):
            return {k: (v * 2 if k[1] == "r3" and k[2] == "r4" else v)
                    for k, v in claims.items()}

        faulty = {
            "r3": WatchersFault(drop_fraction=lambda f: 0.5,
                                misreport=inflate),
            "r4": WatchersFault(),  # colluding: truthful but silent
        }
        report = WatchersProtocol(chain(5), self.flows(), faulty).run_round()
        assert report.detections == []
        assert report.skipped_cof  # the hole: everyone defers to c and d

    def test_improved_protocol_closes_the_hole(self):
        def inflate(claims):
            return {k: (v * 2 if k[1] == "r3" and k[2] == "r4" else v)
                    for k, v in claims.items()}

        faulty = {
            "r3": WatchersFault(drop_fraction=lambda f: 0.5,
                                misreport=inflate),
            "r4": WatchersFault(),
        }
        report = WatchersProtocol(chain(5), self.flows(), faulty,
                                  improved=True).run_round()
        assert report.detects_router("r3") or report.detects_router("r4")
        assert any(d.phase == "timeout-fix" for d in report.detections)

    def test_flow_path_validated(self):
        with pytest.raises(ValueError):
            WatchersProtocol(chain(3),
                             [WatchersFlow(("r1", "r3"), 1.0)])
