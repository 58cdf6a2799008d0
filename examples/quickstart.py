#!/usr/bin/env python3
"""Quickstart: catch a packet-dropping router with Protocol Πk+2.

Builds a five-router line network, runs a CBR flow end to end, compromises
the middle router so it silently drops 30% of the flow, and lets Πk+2
(k = 1: monitor every 3-path-segment from its ends) localize the fault.

Run:  python examples/quickstart.py
"""

from repro.core import arm_protocol
from repro.net import (
    CBRSource,
    DropFlowAttack,
    Network,
    chain,
    install_static_routes,
)


def main() -> None:
    # 1. A network: r1 - r2 - r3 - r4 - r5, with shortest-path routing.
    topology = chain(5)
    network = Network(topology)
    paths = install_static_routes(network)

    # 2. Detection plumbing: a summary generator (tap), agreed 1 s rounds,
    #    keys, and Πk+2 (PiConfig defaults: k = 1, zero loss threshold)
    #    over every monitored segment, for rounds 0-4.
    protocol = arm_protocol(network, paths, "pik2", last_round=4)

    # 3. Traffic plus a compromised router.
    flow = CBRSource(network, "r1", "r5", "webflow",
                     rate_bps=800_000, duration=5.0)
    network.routers["r3"].compromise = DropFlowAttack(
        ["webflow"], fraction=0.3, seed=7)

    # 4. Run and report.
    network.run(7.0)
    print(f"sent {flow.sent} packets, delivered {flow.received} "
          f"({flow.loss_count} lost)")
    for router in ("r1", "r5"):
        state = protocol.states[router]
        print(f"{router} suspects: {sorted(state.suspected_segments())}")
    suspicious = protocol.states["r1"].suspected_segments()
    assert any("r3" in seg for seg in suspicious), "r3 should be suspected"
    print("the faulty router r3 is inside every suspected segment ✓")


if __name__ == "__main__":
    main()
