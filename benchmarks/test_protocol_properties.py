"""Appendix B — accuracy/completeness of Π2 and Πk+2 under an adversary
sweep: random compromised routers with mixed traffic/protocol faults.

Paper claims (Theorems B.2/B.3): Π2 is 2-accurate and 2-FC-complete;
Πk+2 is (k+2)-accurate and (k+2)-complete; both strong-complete (every
correct router converges on the suspicions).
"""

import random

from conftest import save_series

from repro.core import accuracy_report, arm_protocol, completeness_report
from repro.net import (
    CBRSource,
    CombinedCompromise,
    ControlSuppressionAttack,
    DropFlowAttack,
    MBPS,
    ModifyAttack,
    Network,
    chain,
    install_static_routes,
)


def _run_case(protocol_name, bad_router, behavior, seed):
    net = Network(chain(6, bandwidth=10 * MBPS, delay=0.001))
    protocol = arm_protocol(net, install_static_routes(net), protocol_name)
    max_precision = 2 if protocol_name == "pi2" else 3

    if behavior == "drop":
        attack = DropFlowAttack(["f1", "f2"], fraction=0.5, seed=seed)
    elif behavior == "modify":
        attack = ModifyAttack(fraction=0.5, seed=seed)
    else:
        attack = CombinedCompromise(
            DropFlowAttack(["f1"], fraction=0.5, seed=seed),
            ControlSuppressionAttack(),
        )
    net.routers[bad_router].compromise = attack

    CBRSource(net, "r1", "r6", "f1", rate_bps=600_000, duration=4.0)
    CBRSource(net, "r6", "r1", "f2", rate_bps=600_000, duration=4.0)
    net.run(7.0)

    acc = accuracy_report(protocol.states, {bad_router},
                          max_precision=max_precision)
    comp = completeness_report(protocol.states, {bad_router})
    return acc, comp


def test_protocol_properties(benchmark):
    cases = [(proto, bad, behavior)
             for proto in ("pi2", "pik2")
             for bad in ("r2", "r3", "r4")
             for behavior in ("drop", "modify", "combined")]

    def sweep():
        results = []
        for i, (proto, bad, behavior) in enumerate(cases):
            acc, comp = _run_case(proto, bad, behavior, seed=i)
            results.append((proto, bad, behavior, acc, comp))
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["protocol  router  behavior  suspicions  accurate  complete"]
    for proto, bad, behavior, acc, comp in results:
        lines.append(f"{proto:8s}  {bad:6s}  {behavior:8s}  "
                     f"{acc.total_suspicions:10d}  {acc.accurate!s:8s}  "
                     f"{comp.complete}")
    save_series("protocol_properties", lines)

    for proto, bad, behavior, acc, comp in results:
        assert acc.total_suspicions > 0, (proto, bad, behavior)
        assert acc.accurate, (proto, bad, behavior)
        assert comp.complete, (proto, bad, behavior)
