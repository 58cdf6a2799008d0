"""Appendix B's chain runs: the seeded Π2 / Πk+2 packet-plane benches.

``pi2_bench`` and ``pik2_bench`` are what ``repro sweep`` runs most, and
a sweep served from the result cache only looks them up.  So this module
imports nothing but the result base at its top: looking either up loads
neither :mod:`repro.eval.experiments` nor the scenario specs, and a run
imports the spec, the simulator and the detectors it drives.
:mod:`repro.eval.experiments` re-exports every name defined here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.eval.results import EvalResultBase


@dataclass
class ProtocolBenchResult(EvalResultBase):
    """Result of a seeded packet-plane protocol run (Π2 / Πk+2).

    Unlike the analytic ``fig5_2``/``fig5_4`` path-enumeration curves,
    these runs drive the full simulator — sources, queues, monitor taps,
    summary exchange and detector — so they double as sweepable golden
    workloads for the bench suite.
    """

    name: str
    protocol: str  # "pi2" | "pik2"
    bad_router: str
    total_suspicions: int
    accurate: bool
    complete: bool
    precision: int
    sim_events: int
    extra: Dict[str, float] = field(default_factory=dict)


def _run_protocol_bench(name: str, protocol_name: str, seed: int,
                        bad_router: str, fraction: float,
                        rate_bps: int) -> ProtocolBenchResult:
    """Appendix B's chain run: r1 <-> r6 across a dropping ``bad_router``."""
    from repro.core import accuracy_report, completeness_report
    from repro.eval.scenarios import build_scenario
    from repro.eval.specs import ScenarioSpec
    from repro.net import MBPS

    scenario = build_scenario(ScenarioSpec(
        topology={"name": "line", "options": {
            "n": 6, "bandwidth": 10 * MBPS, "delay": 0.001}},
        adversary={"behavior": "drop", "rate": fraction},
        placement={"strategy": "fixed", "router": bad_router},
        traffic={"rate_bps": rate_bps},
        detector=protocol_name, seed=seed,
        options={"endpoints": [["r1", "r6"], ["r6", "r1"]],
                 "attack_at": 0.0})).run()
    protocol = scenario.protocol
    acc = accuracy_report(protocol.states, {bad_router},
                          max_precision=protocol.precision)
    comp = completeness_report(protocol.states, {bad_router})
    return ProtocolBenchResult(
        name=name,
        protocol=protocol_name,
        bad_router=bad_router,
        total_suspicions=acc.total_suspicions,
        accurate=acc.accurate,
        complete=comp.complete,
        precision=acc.precision,
        sim_events=scenario.network.sim.events_dispatched,
    )


def pi2_bench(seed: int = 0, bad_router: str = "r3",
              fraction: float = 0.5,
              rate_bps: int = 600_000) -> ProtocolBenchResult:
    """Seeded Π2 packet-plane run on a 6-router chain (Appendix B)."""
    return _run_protocol_bench("pi2-bench", "pi2", seed, bad_router,
                               fraction, rate_bps)


def pik2_bench(seed: int = 0, bad_router: str = "r3",
               fraction: float = 0.5,
               rate_bps: int = 600_000) -> ProtocolBenchResult:
    """Seeded Πk+2 packet-plane run on a 6-router chain (Appendix B)."""
    return _run_protocol_bench("pik2-bench", "pik2", seed, bad_router,
                               fraction, rate_bps)
