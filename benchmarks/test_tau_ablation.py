"""Round-length τ ablation (§5.3.1).

"A longer time interval requires more traffic summary state to be
maintained, while a shorter time interval places more stringent
synchronization requirements" — and detection latency scales with τ.
Sweep τ for the same Πk+2 deployment and attack.
"""

from conftest import save_series

from repro.core import arm_protocol
from repro.net import (
    CBRSource,
    DropFlowAttack,
    Network,
    chain,
    install_static_routes,
)


def run_tau(tau: float):
    net = Network(chain(5))
    horizon = 24.0
    protocol = arm_protocol(net, install_static_routes(net), "pik2", tau=tau,
                            last_round=max(1, int(horizon / tau)) - 1)
    CBRSource(net, "r1", "r5", "f1", rate_bps=600_000, duration=horizon - 4)
    attack_at = 8.0
    net.run(attack_at)
    net.routers["r3"].compromise = DropFlowAttack(["f1"], fraction=0.3,
                                                  seed=1)
    peak_state = 0
    end = attack_at
    while end < horizon:
        end = min(horizon, end + 1.0)
        net.run(end)
        # The protocol retires a round once its last exchange has
        # concluded (settle + exchange timeout after the round ends), so
        # peak live state is proportional to tau.
        peak_state = max(peak_state, protocol.monitor.state_units("r1"))
    detection = None
    for state in protocol.states.values():
        for suspicion in state.suspicions:
            if "r3" in suspicion.segment:
                lo, hi = suspicion.interval
                when = hi  # earliest possible announcement is round end
                detection = when if detection is None else min(detection, when)
    latency = None if detection is None else max(0.0, detection - attack_at)
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
