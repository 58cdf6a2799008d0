"""Traffic-modeling formulas (§6.1.2) — the approach the paper rejects.

Appenzeller et al.'s buffer-occupancy model is the straw-man congestion
predictor whose imprecision motivates χ: the bottleneck queue is ~normal
with σ_Q = (2 T_p C + B)/(3√3 · √n)  (Eq. 6.1), giving a loss probability
p = (1 − erf(B/2 / (√2 σ_Q)))/2  (Eq. 6.2).

The paper verified the normality of Q but found the (µ, σ) prediction too
rough to drive detection — our benches reproduce that comparison.
"""

from __future__ import annotations

import math


def appenzeller_sigma(
    propagation_delay: float,
    capacity_pps: float,
    buffer_packets: float,
    n_flows: int,
) -> float:
    """σ_Q of Eq. (6.1), in packets.

    ``propagation_delay`` is the average two-way propagation delay T_p in
    seconds, ``capacity_pps`` the bottleneck capacity C (packets/s),
    ``buffer_packets`` the maximum queue B, ``n_flows`` the number of
    desynchronized long-lived TCP flows.
    """
    if n_flows <= 0:
        raise ValueError("need at least one flow")
    return (1.0 / (3.0 * math.sqrt(3.0))) * (
        (2.0 * propagation_delay * capacity_pps + buffer_packets)
        / math.sqrt(n_flows)
    )


def appenzeller_loss_probability(
    buffer_packets: float, sigma_q: float
) -> float:
    """p of Eq. (6.2): probability the ~normal queue exceeds the buffer."""
    if sigma_q <= 0:
        raise ValueError("sigma must be positive")
    return (1.0 - math.erf((buffer_packets / 2.0) / (math.sqrt(2.0) * sigma_q))) / 2.0

