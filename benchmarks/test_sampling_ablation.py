"""Sampling-rate ablation (§5.2.1).

Πk+2's ends can agree on a secret hash range and record only a fraction
of the traffic.  State shrinks linearly with the rate; an attacker who
cannot tell which packets are monitored keeps getting caught (only the
evidence per round shrinks).
"""

from conftest import save_series

from repro.eval import ScenarioSpec, build_scenario


def run_rate(rate: float):
    scenario = build_scenario(ScenarioSpec(
        topology={"name": "line", "options": {"n": 5}},
        adversary={"behavior": "drop", "rate": 0.3},
        placement={"strategy": "fixed", "router": "r3"},
        traffic={"flows": 1, "rate_bps": 800_000, "duration": 8.0},
        detector="pik2", rounds=8,
        options={"endpoints": [["r1", "r5"]], "attack_at": 4.0,
                 "monitor": "all", "sampling": rate}))
    protocol = scenario.protocol
    peak_state = 0
    for end in range(5, 13):
        scenario.network.run(float(end))
        peak_state = max(peak_state, protocol.monitor.state_units("r1"))
    detected = any("r3" in s for s in
                   protocol.states["r1"].suspected_segments())
    return detected, peak_state


def test_sampling_ablation(benchmark):
    rates = (1.0, 0.5, 0.25, 0.1)
    results = benchmark.pedantic(
        lambda: {rate: run_rate(rate) for rate in rates},
        rounds=1, iterations=1,
    )
    lines = ["rate  detected  peak_state_units(r1)"]
    for rate, (detected, state) in results.items():
        lines.append(f"{rate:4.2f}  {detected!s:8s}  {state}")
    save_series("sampling_ablation", lines)

    # Detection survives down to 10% sampling (the attacker cannot dodge
    # the secret hash range), while state scales down with the rate.
    assert all(detected for detected, _ in results.values())
    states = [results[rate][1] for rate in rates]
    assert states[-1] < states[0] / 4


def test_sampled_run_repeats_in_one_process():
    # A sampled summary keeps a packet by its fingerprint, which covers
    # the packet's uid: uids numbered per network make the run repeat.
    assert run_rate(0.5) == run_rate(0.5)
