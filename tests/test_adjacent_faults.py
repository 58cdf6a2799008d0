"""AdjacentFault(k) — the Appendix B parameterization, end to end.

The monitored segment length k+2 exists so that any run of ≤ k adjacent
faulty routers is flanked by two *correct* monitors.  These tests drive
the bound from both sides: a colluding adjacent pair escapes a protocol
provisioned for k = 1 and is caught by one provisioned for k = 2.
"""


from repro.core.detector import accuracy_report
from repro.core.detector import PiConfig
from repro.core.pik2 import ProtocolPiK2
from repro.core.segments import monitored_segments_pik2
from repro.core.summaries import PathOracle, SegmentMonitor
from repro.crypto.keys import KeyInfrastructure
from repro.dist.sync import RoundSchedule
from repro.net.adversary import DropFlowAttack
from repro.net.router import Network
from repro.net.routing import install_static_routes
from repro.net.topology import MBPS, chain
from repro.net.traffic import CBRSource


def run_collusion(k: int):
    """Chain r1..r6; r3 drops, r4 is compromised (silent validator)."""
    net = Network(chain(6, bandwidth=10 * MBPS, delay=0.001))
    paths = install_static_routes(net)
    monitor = SegmentMonitor(net, PathOracle(paths), RoundSchedule(tau=1.0))
    net.add_tap(monitor)
    segments = set().union(*monitored_segments_pik2(
        [tuple(p) for p in paths.values()], k=k).values())
    protocol = ProtocolPiK2(net, monitor, segments, KeyInfrastructure(),
                            RoundSchedule(tau=1.0),
                            config=PiConfig(k=k))
    protocol.schedule_rounds(0, 3)
    # r3 traffic-faulty; r4 compromised (colludes by staying silent as a
    # validator — it is the sink end of every 3-segment that would
    # otherwise expose r3's forward-direction drops).
    net.routers["r3"].compromise = DropFlowAttack(["f1"], fraction=0.5,
                                                  seed=1)
    net.routers["r4"].compromise = DropFlowAttack([], fraction=0.0)
    CBRSource(net, "r1", "r6", "f1", rate_bps=800_000, duration=4.0)
    net.run(7.0)
    return net, protocol


class TestAdjacentFaultBound:
    def test_k1_misses_colluding_adjacent_pair(self):
        """With AdjacentFault(1) provisioning, two adjacent compromised
        routers cover for each other: the forward 3-segments spanning the
        dropper all end at its silent accomplice."""
        net, protocol = run_collusion(k=1)
        correct = [r for r in net.topology.routers if r not in ("r3", "r4")]
        detected = any(protocol.states[r].suspicions for r in correct)
        assert not detected

    def test_k2_catches_the_pair(self):
        """Provisioned for AdjacentFault(2), segments of length 4 put two
        *correct* ends around the colluders: r2 -> ... -> r5 exposes the
        missing traffic."""
        net, protocol = run_collusion(k=2)
        report = accuracy_report(protocol.states, {"r3", "r4"},
                                 max_precision=4)
        assert report.total_suspicions > 0
        assert report.accurate
        # Some suspicion spans both colluders with correct ends.
        spanning = [s for st in protocol.states.values()
                    for s in st.suspicions
                    if "r3" in s.segment and "r4" in s.segment]
        assert spanning

    def test_single_fault_needs_only_k1(self):
        """Sanity: a lone dropper is fully handled at k = 1."""
        net = Network(chain(6, bandwidth=10 * MBPS, delay=0.001))
        paths = install_static_routes(net)
        monitor = SegmentMonitor(net, PathOracle(paths),
                                 RoundSchedule(tau=1.0))
        net.add_tap(monitor)
        segments = set().union(*monitored_segments_pik2(
            [tuple(p) for p in paths.values()], k=1).values())
        protocol = ProtocolPiK2(net, monitor, segments, KeyInfrastructure(),
                                RoundSchedule(tau=1.0))
        protocol.schedule_rounds(0, 3)
        net.routers["r3"].compromise = DropFlowAttack(["f1"], fraction=0.5,
                                                      seed=1)
        CBRSource(net, "r1", "r6", "f1", rate_bps=800_000, duration=4.0)
        net.run(7.0)
        report = accuracy_report(protocol.states, {"r3"}, max_precision=3)
        assert report.total_suspicions > 0
        assert report.accurate
