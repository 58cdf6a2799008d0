"""Unit tests for the failure-detector specification machinery (§4.2.2)."""

from repro.core.detector import (
    DetectorState,
    RoundDetector,
    Suspicion,
    accuracy_report,
    completeness_report,
)
from repro.dist.sync import RoundSchedule
from repro.net import Compromise, Network
from repro.net.topology import chain


def susp(segment, by="x", lo=0.0, hi=1.0, reason=""):
    return Suspicion(segment=tuple(segment), interval=(lo, hi),
                     suspected_by=by, reason=reason)


class TestSuspicion:
    def test_contains(self):
        s = susp(("a", "b"))
        assert s.contains("a")
        assert not s.contains("c")

    def test_overlaps(self):
        s = susp(("a", "b"), lo=5.0, hi=10.0)
        assert s.overlaps(8.0, 12.0)
        assert not s.overlaps(10.0, 12.0)


class TestDetectorState:
    def test_dedupes(self):
        state = DetectorState("r")
        assert state.suspect(susp(("a", "b")))
        assert not state.suspect(susp(("a", "b")))
        assert len(state.suspicions) == 1

    def test_different_reasons_kept(self):
        state = DetectorState("r")
        state.suspect(susp(("a", "b"), reason="one"))
        state.suspect(susp(("a", "b"), reason="two"))
        assert len(state.suspicions) == 2

    def test_suspects_and_precision(self):
        state = DetectorState("r")
        state.suspect(susp(("a", "b", "c")))
        assert state.suspects("b")
        assert not state.suspects("z")
        assert state.precision() == 3

    def test_empty_precision(self):
        assert DetectorState("r").precision() == 0


class TestAnnounce:
    """The one adopt-and-flood step Π2, Πk+2 and χ share."""

    @staticmethod
    def announced(origins, compromised=()):
        net = Network(chain(4))
        for name in compromised:
            net.routers[name].compromise = Compromise()
        seen = []
        detector = RoundDetector(net, RoundSchedule(tau=1.0), 0.0,
                                 on_suspicion=seen.append)
        suspicion = susp(("r2", "r3"), by=origins[0])
        detector.announce(suspicion, origins)
        net.run(1.0)
        held = {name for name, state in detector.states.items()
                if suspicion in state.suspicions}
        return held, seen, suspicion

    def test_flood_reaches_every_router_and_calls_back_once(self):
        held, seen, suspicion = self.announced(("r1", "r4"))
        assert held == {"r1", "r2", "r3", "r4"}
        assert seen == [suspicion]

    def test_compromised_origin_stays_silent(self):
        held, seen, suspicion = self.announced(("r3",), compromised=("r3",))
        assert held == set()
        assert seen == [suspicion]


class TestAccuracyReport:
    def test_accurate_when_faulty_in_segment(self):
        states = {"r": DetectorState("r")}
        states["r"].suspect(susp(("a", "bad")))
        report = accuracy_report(states, faulty_routers={"bad"})
        assert report.accurate
        assert report.accurate_suspicions == 1

    def test_false_positive_counted(self):
        states = {"r": DetectorState("r")}
        states["r"].suspect(susp(("a", "b")))
        report = accuracy_report(states, faulty_routers={"bad"})
        assert not report.accurate
        assert len(report.false_positives) == 1

    def test_precision_bound_enforced(self):
        states = {"r": DetectorState("r")}
        states["r"].suspect(susp(("a", "b", "bad")))
        ok = accuracy_report(states, faulty_routers={"bad"}, max_precision=3)
        too_long = accuracy_report(states, faulty_routers={"bad"},
                                   max_precision=2)
        assert ok.accurate
        assert not too_long.accurate

    def test_faulty_routers_suspicions_ignored(self):
        states = {"bad": DetectorState("bad"), "r": DetectorState("r")}
        states["bad"].suspect(susp(("x", "y")))  # bogus framing attempt
        report = accuracy_report(states, faulty_routers={"bad"})
        assert report.total_suspicions == 0

    def test_precision_reported(self):
        states = {"r": DetectorState("r")}
        states["r"].suspect(susp(("a", "b", "bad", "c")))
        report = accuracy_report(states, faulty_routers={"bad"})
        assert report.precision == 4


class TestCompletenessReport:
    def make_states(self, suspicion_by_router):
        states = {}
        for router, suspicions in suspicion_by_router.items():
            states[router] = DetectorState(router)
            for s in suspicions:
                states[router].suspect(s)
        return states

    def test_fi_complete_when_all_correct_suspect(self):
        s = susp(("a", "bad"))
        states = self.make_states({"r1": [s], "r2": [s]})
        report = completeness_report(states, traffic_faulty={"bad"})
        assert report.complete
        assert report.detected == {"bad"}

    def test_fi_incomplete_when_one_misses(self):
        s = susp(("a", "bad"))
        states = self.make_states({"r1": [s], "r2": []})
        report = completeness_report(states, traffic_faulty={"bad"})
        assert not report.complete
        assert report.missed == {"bad"}

    def test_faulty_routers_excluded_from_quorum(self):
        s = susp(("a", "bad"))
        states = self.make_states({"r1": [s], "bad": []})
        report = completeness_report(states, traffic_faulty={"bad"})
        assert report.complete

    def test_per_router_breakdown(self):
        s = susp(("a", "bad"))
        states = self.make_states({"r1": [s], "r2": [s]})
        report = completeness_report(states, traffic_faulty={"bad"})
        assert report.per_router_detected["r1"] == {"bad"}
