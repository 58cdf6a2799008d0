#!/usr/bin/env python3
"""Quickstart: catch a packet-dropping router with Protocol Πk+2.

Builds a five-router line network, runs a CBR flow end to end, compromises
the middle router so it silently drops 30% of the flow, and lets Πk+2
(k = 1: monitor every 3-path-segment from its ends) localize the fault.

Run:  python examples/quickstart.py
"""

from repro.eval import ScenarioSpec, build_scenario


def main() -> None:
    # A network r1 - r2 - r3 - r4 - r5 with shortest-path routing; one
    # CBR flow r1 -> r5; r3 drops 30% of it from the start; Πk+2
    # (PiConfig defaults: k = 1, zero loss threshold) watches every routed
    # path in agreed 1 s rounds 0-4.
    scenario = build_scenario(ScenarioSpec(
        topology={"name": "line", "options": {"n": 5}},
        adversary={"behavior": "drop", "rate": 0.3},
        placement={"strategy": "fixed", "router": "r3"},
        traffic={"flows": 1, "rate_bps": 800_000, "duration": 5.0},
        detector="pik2", rounds=4, seed=6,
        options={"endpoints": [["r1", "r5"]], "attack_at": 0.0,
                 "monitor": "all", "end": 7.0}))

    scenario.run()
    flow = scenario.flows["f1"]
    print(f"sent {flow.sent} packets, delivered {flow.received} "
          f"({flow.loss_count} lost)")
    states = scenario.protocol.states
    for router in ("r1", "r5"):
        print(f"{router} suspects: {sorted(states[router].suspected_segments())}")
    suspicious = states["r1"].suspected_segments()
    assert any("r3" in seg for seg in suspicious), "r3 should be suspected"
    print("the faulty router r3 is inside every suspected segment ✓")


if __name__ == "__main__":
    main()
