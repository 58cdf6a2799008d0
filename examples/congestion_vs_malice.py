#!/usr/bin/env python3
"""Protocol χ: telling malicious drops from congestion on a droptail queue.

Three TCP flows share a 1 Mbps bottleneck, overflowing its queue — real,
benign congestion.  χ learns the queue-prediction error during a clean
learning period, then watches per round.  Midway, the bottleneck router
is compromised and begins dropping the victim flow *only when its queue
is 90% full* — the attack crafted to hide inside congestion (Fig 6.7).
χ stays silent through the congestion and catches the attack.

Run:  python examples/congestion_vs_malice.py
"""

from repro.eval import AdversarySpec, build_scenario, droptail_spec


def main() -> None:
    # From 50 s the bottleneck router drops tcp1 while its queue is 90% full.
    scenario = build_scenario(droptail_spec(tau=2.0, adversary=AdversarySpec(
        "queue-drop", options={"flows": ["tcp1"], "fill_threshold": 0.90})))
    network, chi, attack = scenario.network, scenario.chi, scenario.attack

    # Learning period (attack-free): fit the q_error model (µ, σ).
    network.run(20.0)
    mu, sigma = chi.calibrate(scenario.target)
    print(f"learned q_error model: mu={mu:.0f} B, sigma={sigma:.0f} B")

    chi.schedule_rounds(10, 44)
    network.run(110.0)  # pure congestion, then the attack from 50 s

    print(f"{'round':>5} {'drops':>5} {'cong.':>5} {'candidates':>10} "
          f"{'confidence':>10} alarm")
    for finding in chi.findings:
        if not finding.drops and not finding.alarmed:
            continue
        print(f"{finding.round_index:>5} {len(finding.drops):>5} "
              f"{finding.congestive_drops:>5} {finding.candidate_drops:>10} "
              f"{finding.max_single_confidence:>10.4f} "
              f"{'ALARM' if finding.alarmed else ''}")
    benign = [f for f in chi.findings if f.round_index < 25]
    attacked = [f for f in chi.findings if f.round_index >= 25]
    print(f"\nbenign rounds alarmed: {sum(f.alarmed for f in benign)} "
          f"(of {len(benign)}, with "
          f"{sum(f.congestive_drops for f in benign)} congestive drops)")
    print(f"attack detected: {any(f.alarmed for f in attacked)} "
          f"(ground truth: {len(attack.dropped)} malicious drops)")


if __name__ == "__main__":
    main()
