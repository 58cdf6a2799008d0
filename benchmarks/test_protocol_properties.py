"""Appendix B — accuracy/completeness of Π2 and Πk+2 under an adversary
sweep: random compromised routers with mixed traffic/protocol faults.

Paper claims (Theorems B.2/B.3): Π2 is 2-accurate and 2-FC-complete;
Πk+2 is (k+2)-accurate and (k+2)-complete; both strong-complete (every
correct router converges on the suspicions).
"""

from conftest import save_series

from repro.core import accuracy_report, completeness_report
from repro.eval import ScenarioSpec, build_scenario
from repro.net import MBPS, CombinedCompromise, ControlSuppressionAttack

#: Each case's adversary, from the start of the run and seeded with the
#: case's seed.  ``combined`` drops f1 and, wrapped by hand (no spec
#: behavior builds it), suppresses the control messages it relays.
ADVERSARIES = {
    "drop": {"behavior": "drop", "rate": 0.5, "options": {"seed_offset": 0}},
    "modify": {"behavior": "modify", "rate": 0.5, "targeting": "all",
               "options": {"seed_offset": 0}},
    "combined": {"behavior": "drop", "rate": 0.5,
                 "options": {"seed_offset": 0, "flows": ["f1"]}},
}


def _run_case(protocol_name, bad_router, behavior, seed):
    scenario = build_scenario(ScenarioSpec(
        topology={"name": "line", "options": {
            "n": 6, "bandwidth": 10 * MBPS, "delay": 0.001}},
        adversary=ADVERSARIES[behavior],
        placement={"strategy": "fixed", "router": bad_router},
        detector=protocol_name, seed=seed,
        options={"endpoints": [["r1", "r6"], ["r6", "r1"]],
                 "attack_at": 0.0}))
    if behavior == "combined":
        scenario.network.routers[bad_router].compromise = CombinedCompromise(
            scenario.attack, ControlSuppressionAttack())
    scenario.run()

    protocol = scenario.protocol
    acc = accuracy_report(protocol.states, {bad_router},
                          max_precision=protocol.precision)
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
