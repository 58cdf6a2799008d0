"""Round-length τ ablation (§5.3.1).

"A longer time interval requires more traffic summary state to be
maintained, while a shorter time interval places more stringent
synchronization requirements" — and detection latency scales with τ.
Sweep τ for the same Πk+2 deployment and attack.
"""

from conftest import save_series

from repro.eval import ScenarioSpec, build_scenario

HORIZON, ATTACK_AT = 24, 8


def run_tau(tau: float):
    scenario = build_scenario(ScenarioSpec(
        topology={"name": "line", "options": {"n": 5}},
        adversary={"behavior": "drop", "rate": 0.3},
        placement={"strategy": "fixed", "router": "r3"},
        traffic={"flows": 1, "duration": HORIZON - 4},
        detector="pik2", tau=tau,
        rounds=max(1, int(HORIZON / tau)) - 1,
        options={"endpoints": [["r1", "r5"]], "attack_at": ATTACK_AT,
                 "monitor": "all"}))
    protocol = scenario.protocol
    peak_state = 0
    for end in range(ATTACK_AT + 1, HORIZON + 1):
        scenario.network.run(float(end))
        # The protocol retires a round once its last exchange has
        # concluded (settle + exchange timeout after the round ends), so
        # peak live state is proportional to tau.
        peak_state = max(peak_state, protocol.monitor.state_units("r1"))
    # A suspicion is announced at its round's end at the earliest.
    announced = [s.interval[1] for state in protocol.states.values()
                 for s in state.suspicions if "r3" in s.segment]
    latency = max(0.0, min(announced) - ATTACK_AT) if announced else None
    return latency, peak_state


def test_tau_ablation(benchmark):
    taus = (0.5, 1.0, 2.0, 4.0)
    results = benchmark.pedantic(
        lambda: {tau: run_tau(tau) for tau in taus},
        rounds=1, iterations=1,
    )
    lines = ["tau   detection_latency_bound  peak_state_units(r1)"]
    for tau, (latency, state) in results.items():
        lines.append(f"{tau:4.1f}  {latency!s:>22}  {state}")
    save_series("tau_ablation", lines)

    # Detected at every tau.
    assert all(latency is not None for latency, _ in results.values())
    # Latency bound grows with tau; per-round state grows with tau.
    latencies = [results[tau][0] for tau in taus]
    assert latencies[0] <= latencies[-1]
    states = [results[tau][1] for tau in taus]
    assert states[0] < states[-1]
