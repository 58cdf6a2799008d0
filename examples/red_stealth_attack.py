#!/usr/bin/env python3
"""Catching a fine-grained attack hidden inside RED's own random drops.

A RED bottleneck drops hundreds of packets per minute *by design*.  The
compromised router adds a whisper of malice: it drops packets of two
selected flows only while the RED average queue exceeds 45,000 bytes —
exactly when RED drops are most plausible (Fig 6.12).  χ reconstructs the
average-queue trajectory, derives the RED drop probability every packet
faced, and flags the selected flows whose losses outrun their math.

Run:  python examples/red_stealth_attack.py
"""

from repro.eval import AdversarySpec, build_scenario, red_spec


def main() -> None:
    # From 50 s the bottleneck router drops tcp1 and tcp2 while the RED
    # average queue exceeds 45,000 bytes.
    scenario = build_scenario(red_spec(tau=5.0, adversary=AdversarySpec(
        "red-avg-drop", options={"flows": ["tcp1", "tcp2"],
                                 "avg_threshold": 45_000})))
    network, chi, attack = scenario.network, scenario.chi, scenario.attack
    chi.schedule_rounds(1, 59)
    network.run(300.0)  # RED-only losses, then the attack from 50 s

    queue = scenario.bottleneck_queue
    print(f"RED queue dropped {queue.drops} packets itself; the attacker "
          f"added {len(attack.dropped)}")
    print(f"{'round':>5} {'drops':>5} {'agg conf':>9}  suspicious flows")
    for finding in chi.findings:
        flows = finding.suspicious_flows + finding.cumulative_flows
        if finding.round_index % 5 and not finding.alarmed:
            continue
        print(f"{finding.round_index:>5} {len(finding.drops):>5} "
              f"{finding.combined_confidence:>9.3f}  "
              f"{sorted(set(flows)) if flows else ''}"
              f"{'  <- ALARM' if finding.alarmed else ''}")
    benign = [f for f in chi.findings if f.round_index < 10]
    attacked = [f for f in chi.findings if f.round_index >= 10]
    print(f"\nfalse alarms during pure RED loss: "
          f"{sum(f.alarmed for f in benign)}")
    print(f"attack detected: {any(f.alarmed for f in attacked)}")


if __name__ == "__main__":
    main()
