"""The paper's tables and figures as runnable experiments.

Each returns a small result object with the series the paper plots, so
bench output can be read against the original figure.  Most figures are
one function.  The χ evaluation (Ch. 6) is one bottleneck testbed varied
along queue discipline, attack, load and schedule, so Figs 6.5-6.9,
6.11-6.16 and the χ benches are rows of :data:`TESTBED_ROWS` (registry
name, result label, :class:`~repro.eval.specs.ScenarioSpec`, exposed
flat parameters), all run by :func:`run_testbed`.  Benches, tests and
examples address experiments through :mod:`repro.eval.registry`.

The registry holds these functions (it derives each parameter table from
a signature), so this module imports no simulator code at its top: a
function imports the simulator, detectors and baselines it runs, when it
runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.eval.metrics import DetectionMetrics, score_round_findings
from repro.eval.results import EvalResultBase
from repro.eval.specs import (
    AdversarySpec,
    ScenarioSpec,
    droptail_spec,
    red_spec,
)

if TYPE_CHECKING:
    from repro.net import Topology


def _topology(name: str) -> Topology:
    from repro.net import abilene, ebone_like, sprintlink_like

    if name == "sprintlink":
        return sprintlink_like()
    if name == "ebone":
        return ebone_like()
    if name == "abilene":
        return abilene()
    raise ValueError(f"unknown topology {name!r}")


# ---------------------------------------------------------------------------
# Figures 5.2 / 5.4 — |P_r| vs k
# ---------------------------------------------------------------------------

@dataclass
class PrCurve(EvalResultBase):
    topology: str
    protocol: str  # "pi2" | "pik2"
    series: Dict[int, Dict[str, float]] = field(default_factory=dict)

    def rows(self) -> List[Tuple[int, float, float, float]]:
        return [(k, s["max"], s["mean"], s["median"])
                for k, s in sorted(self.series.items())]


def fig5_2_pr_pi2(topology: str = "sprintlink",
                  ks: Sequence[int] = range(1, 9)) -> PrCurve:
    """Fig 5.2: segments monitored per router under Π2."""
    from repro.core import (all_routing_paths, monitored_segments_pi2,
                            pr_statistics)

    topo = _topology(topology)
    paths = all_routing_paths(topo)
    curve = PrCurve(topology=topology, protocol="pi2")
    for k in ks:
        by_router = monitored_segments_pi2(paths, k)
        curve.series[k] = pr_statistics(by_router, topo.routers)
    return curve


def fig5_4_pr_pik2(topology: str = "sprintlink",
                   ks: Sequence[int] = range(1, 9)) -> PrCurve:
    """Fig 5.4: segments monitored per router under Πk+2."""
    from repro.core import (all_routing_paths, monitored_segments_pik2,
                            pr_statistics)

    topo = _topology(topology)
    paths = all_routing_paths(topo)
    curve = PrCurve(topology=topology, protocol="pik2")
    for k in ks:
        by_router = monitored_segments_pik2(paths, k)
        curve.series[k] = pr_statistics(by_router, topo.routers)
    return curve


@dataclass
class StateOverheadResult(EvalResultBase):
    topology: str
    watchers_mean: float
    watchers_max: float
    pik2_counters: Dict[int, Dict[str, float]]  # k -> mean/max counters

    def rows(self) -> List[str]:
        out = [f"WATCHERS: mean {self.watchers_mean:.0f} max {self.watchers_max:.0f}"]
        for k, stats in sorted(self.pik2_counters.items()):
            out.append(
                f"Πk+2 AdjacentFault({k}): mean {stats['mean']:.0f} "
                f"max {stats['max']:.0f}"
            )
        return out


def state_overhead(topology: str = "sprintlink",
                   ks: Sequence[int] = (2, 7)) -> StateOverheadResult:
    """§5.1.1/§5.2.1: per-router counter state, WATCHERS vs Πk+2."""
    from repro.core import all_routing_paths, monitored_segments_pik2
    from repro.core.segments import (pik2_counter_count,
                                     watchers_counter_count)

    topo = _topology(topology)
    paths = all_routing_paths(topo)
    watchers = watchers_counter_count(topo)
    values = list(watchers.values())
    pik2: Dict[int, Dict[str, float]] = {}
    for k in ks:
        by_router = monitored_segments_pik2(paths, k)
        counts = pik2_counter_count(by_router, topo)
        counter_values = list(counts.values())
        pik2[k] = {
            "mean": sum(counter_values) / len(counter_values),
            "max": float(max(counter_values)),
        }
    return StateOverheadResult(
        topology=topology,
        watchers_mean=sum(values) / len(values),
        watchers_max=float(max(values)),
        pik2_counters=pik2,
    )


# ---------------------------------------------------------------------------
# Fig 5.7 — Fatih in progress
# ---------------------------------------------------------------------------

@dataclass
class FatihTimelineResult(EvalResultBase):
    convergence_time: Optional[float]
    attack_time: float
    first_detection: Optional[float]
    reroute_time: Optional[float]
    rtt_before: Optional[float]
    rtt_after: Optional[float]
    suspected_segments: List[Tuple[str, ...]]
    probes_lost: int

    derived = ("detection_latency", "response_latency")

    @property
    def detection_latency(self) -> Optional[float]:
        if self.first_detection is None:
            return None
        return self.first_detection - self.attack_time

    @property
    def response_latency(self) -> Optional[float]:
        if self.reroute_time is None:
            return None
        return self.reroute_time - self.attack_time


def fig5_7_fatih(
    attack_time: float = 117.0,
    attack_fraction: float = 0.2,
    end_time: float = 220.0,
    monitor_start: float = 60.0,
) -> FatihTimelineResult:
    """Fig 5.7: OSPF convergence, attack at Kansas City, detection,
    alert flooding, SPF delay+hold, rerouting; New York <-> Sunnyvale RTT
    goes from ~50 ms to ~56 ms."""
    from repro.core import FatihSystem
    from repro.core.fatih import RTTMonitor
    from repro.net import MBPS, CBRSource, LinkStateRouting, Network, abilene

    topo = abilene(bandwidth=10 * MBPS)
    net = Network(topo, proc_jitter=0.0002)
    routing = LinkStateRouting(net, spf_delay=5.0, spf_hold=10.0,
                               hello_interval=10.0, boot_spread=30.0)
    routing.start()
    fatih = FatihSystem(net, routing)
    fatih.start_monitoring(at=monitor_start, until=end_time)

    # Background load crossing Kansas City (and elsewhere).
    flows = [
        ("Sunnyvale", "NewYork"), ("NewYork", "Sunnyvale"),
        ("LosAngeles", "Chicago"), ("Seattle", "WashingtonDC"),
        ("Denver", "Indianapolis"), ("Houston", "Chicago"),
        ("Atlanta", "Seattle"),
    ]
    sources = []
    for i, (src, dst) in enumerate(flows):
        sources.append(CBRSource(net, src, dst, f"bg{i}",
                                 rate_bps=80_000, start=58.0 + 0.01 * i))
    rtt = RTTMonitor(net, "NewYork", "Sunnyvale", interval=1.0, start=60.0,
                     stop=end_time - 5)

    net.run(attack_time)
    net.routers["KansasCity"].compromise = AdversarySpec(
        "drop", attack_fraction, targeting="all",
        options={"seed_offset": 11}).build(net, "KansasCity", (), 0)
    net.run(end_time)

    detection = fatih.first_detection_time()
    reroute = None
    for when, _name in routing.spf_runs:
        if detection is not None and when > detection:
            reroute = when
            break
    return FatihTimelineResult(
        convergence_time=routing.convergence_time(),
        attack_time=attack_time,
        first_detection=detection,
        reroute_time=reroute,
        rtt_before=rtt.mean_rtt(monitor_start + 5, attack_time),
        rtt_after=rtt.mean_rtt((reroute or end_time) + 5, end_time),
        suspected_segments=sorted(fatih.suspected_segments()),
        probes_lost=rtt.lost,
    )


# ---------------------------------------------------------------------------
# Fig 6.2 — single-loss confidence curve
# ---------------------------------------------------------------------------

@dataclass
class ConfidenceCurve(EvalResultBase):
    q_limit: float
    mu: float
    sigma: float
    points: List[Tuple[float, float]]  # (q_pred, confidence)


def fig6_2_confidence_curve(q_limit: float = 30_000.0,
                            packet_size: float = 1_000.0,
                            mu: float = 0.0, sigma: float = 1_000.0,
                            steps: int = 60) -> ConfidenceCurve:
    """Fig 6.2: c_single as the predicted queue approaches the limit."""
    from repro.core.chi import single_loss_confidence

    points = []
    for i in range(steps + 1):
        q_pred = q_limit * i / steps
        conf = single_loss_confidence(q_limit, q_pred, packet_size, mu, sigma)
        points.append((q_pred, conf))
    return ConfidenceCurve(q_limit, mu, sigma, points)


# ---------------------------------------------------------------------------
# The χ testbed — Figs 6.3, 6.5-6.9, 6.11-6.16, benches, χ vs static threshold
# ---------------------------------------------------------------------------

@dataclass
class ScenarioResult(EvalResultBase):
    name: str
    metrics: DetectionMetrics
    total_drops: int
    congestive_drops: int
    malicious_drops_truth: int
    candidate_drops: int
    rounds: List[Tuple[int, int, int, float, bool]] = field(default_factory=list)
    # rows: (round, drops, candidates, max confidence, alarmed)
    malicious_by_round: Dict[int, int] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)

    derived = ("detected",)

    @property
    def detected(self) -> bool:
        return self.metrics.detected

    @property
    def false_positives(self) -> int:
        return self.metrics.false_positive_rounds


def run_testbed(name: str, spec: ScenarioSpec) -> ScenarioResult:
    """Build one bottleneck-testbed spec, play its schedule, score χ.

    Droptail χ first learns its queue-error model on attack-free
    traffic (§6.2.1), its round rows carry the largest single-loss
    confidence and its extras report the attack's damage; RED needs no
    learning and its rows carry the combined confidence.
    """
    from repro.eval.scenarios import build_scenario

    scenario = build_scenario(spec)
    net, chi, attack = scenario.network, scenario.chi, scenario.attack
    schedule, tau = scenario.options, spec.tau
    droptail = scenario.red_params is None
    if droptail:
        net.run(schedule["learning_until"])
        chi.calibrate(scenario.target)
    chi.schedule_rounds(schedule["first_round"], spec.rounds)
    # The stop at the attack time does no work; it keeps the traced
    # repro.net.sim.runs counter, and so the golden traces, unchanged.
    net.run(schedule["attack_at"])
    net.run(schedule["end"])
    attack_first = (int(schedule["attack_at"] / tau)
                    if attack is not None else None)
    by_round: Dict[int, int] = {}
    if attack is not None:
        for when in attack.drop_times:
            by_round[int(when / tau)] = by_round.get(int(when / tau), 0) + 1
    result = ScenarioResult(
        name=name,
        metrics=score_round_findings(chi.findings, attack_first),
        total_drops=sum(len(f.drops) for f in chi.findings),
        congestive_drops=sum(f.congestive_drops for f in chi.findings),
        malicious_drops_truth=(len(attack.dropped) if attack else 0),
        candidate_drops=sum(f.candidate_drops for f in chi.findings),
        rounds=[(f.round_index, len(f.drops), f.candidate_drops,
                 (f.max_single_confidence if droptail
                  else f.combined_confidence), f.alarmed)
                for f in chi.findings],
        malicious_by_round=by_round,
    )
    connector = scenario.connector
    if connector is not None:
        result.extra["syn_retries"] = float(connector.syn_retry_count())
    if not droptail:
        return result
    setup = connector.setup_times() if connector is not None else []
    if setup:
        result.extra["mean_setup_time"] = sum(setup) / len(setup)
    # Attack damage, the paper's motivation: victim vs bystander goodput.
    victim = scenario.flows.get("tcp1")
    bystanders = [f for fid, f in scenario.flows.items() if fid != "tcp1"]
    if victim is not None:
        result.extra["victim_goodput_pps"] = victim.goodput_pps()
    if bystanders:
        result.extra["bystander_goodput_pps"] = (
            sum(f.goodput_pps() for f in bystanders) / len(bystanders))
    return result


#: Flat CLI parameter -> (type, its path in ``ScenarioSpec.to_dict()``).
_FLAT_PARAMS = {
    "seed": (int, ("seed",)),
    "tau": (float, ("tau",)),
    "n_sources": (int, ("traffic", "flows")),
    "fraction": (float, ("adversary", "rate")),
    "fill_threshold": (float, ("adversary", "options", "fill_threshold")),
    "avg_threshold": (float, ("adversary", "options", "avg_threshold")),
}


def _holder(data: dict, path: Tuple[str, ...]) -> dict:
    """The (nested) dict that holds ``path``'s last key."""
    for key in path[:-1]:
        data = data[key]
    return data


@dataclass(frozen=True)
class TestbedRow:
    """One χ experiment: a testbed spec plus the flat parameters it takes."""

    name: str  # registry name
    label: str  # ScenarioResult.name
    description: str
    spec: ScenarioSpec
    exposed: Tuple[str, ...]

    @property
    def params(self) -> Tuple[Tuple[str, type, object], ...]:
        """(name, type, default read off the spec) per exposed parameter."""
        data = self.spec.to_dict()
        return tuple((name, kind, _holder(data, path)[path[-1]])
                     for name in self.exposed
                     for kind, path in [_FLAT_PARAMS[name]])

    def run(self, **flat) -> ScenarioResult:
        data = self.spec.to_dict()
        for name, value in flat.items():
            path = _FLAT_PARAMS[name][1]
            _holder(data, path)[path[-1]] = value
        return run_testbed(self.label, ScenarioSpec.from_dict(data))


def _droptail(adversary: Optional[AdversarySpec] = None,
              **load) -> ScenarioSpec:
    """Figs 6.5-6.9: learn 20 s, monitor rounds 10-44, 110 s in all."""
    return droptail_spec(adversary=adversary, rounds=44, **load)


def _red(adversary: Optional[AdversarySpec] = None, end: float = 300.0,
         **load) -> ScenarioSpec:
    """Figs 6.11-6.16: monitor every 5 s round from 1 until ``end``."""
    return red_spec(adversary=adversary, rounds=int(end / 5.0) - 1, end=end,
                    **load)


def _attack(behavior: str, rate: float = 1.0, flows=("tcp1",),
            **options) -> AdversarySpec:
    """An adversary on the selected flow(s); ``tcp1`` is the convention."""
    return AdversarySpec(behavior, rate,
                         options=dict(options, flows=list(flows)))


def _red_avg(avg_threshold: int, rate: float = 1.0,
             **options) -> AdversarySpec:
    """Figs 6.12-6.15 select two flows, dropped above a RED average."""
    return _attack("red-avg-drop", rate, ("tcp1", "tcp2"),
                   avg_threshold=avg_threshold, **options)


_SYN_DROP = AdversarySpec("syn-drop", options={"victim": "vsink"})
_LOAD = ("seed", "tau", "n_sources")

TESTBED_ROWS: Tuple[TestbedRow, ...] = (
    TestbedRow("fig6_5", "no-attack", "Fig 6.5: droptail, pure congestion",
               _droptail(), _LOAD),
    TestbedRow("fig6_6", "attack1-drop20pct",
               "Fig 6.6: drop 20% of the selected flow",
               _droptail(_attack("drop", 0.2)),
               ("seed", "fraction", "tau", "n_sources")),
    # Fig 6.6 on two sources (~2 s a run): a traced, profiled sweep of it
    # fits a CI smoke job and still goes attack -> monitor -> detect.
    TestbedRow("chi", "chi-bench",
               "bench: small, fast χ detection scenario "
               "(CI smoke / profiling)",
               _droptail(_attack("drop", 0.2), n_sources=2),
               ("seed", "fraction", "tau", "n_sources")),
    TestbedRow("tcp_heavy", "tcp-heavy",
               "bench: TCP-heavy droptail congestion, no attack",
               _droptail(n_sources=6, with_connector=True),
               ("seed", "n_sources", "tau")),
    TestbedRow("adversary_heavy", "adversary-heavy",
               "bench: RED with combined conditional-drop + SYN-drop "
               "adversary",
               _red(_red_avg(45_000, also={
                        "behavior": "syn-drop",
                        "options": {"victim": "vsink", "seed_offset": 2}}),
                    end=200.0, with_connector=True),
               ("seed", "n_sources", "avg_threshold")),
    TestbedRow("fig6_7", "attack2-queue90",
               "Fig 6.7: drop selected flow at queue 90%",
               _droptail(_attack("queue-drop", fill_threshold=0.90)),
               ("seed", "fill_threshold", "tau", "n_sources")),
    TestbedRow("fig6_8", "attack3-queue95",
               "Fig 6.8: drop selected flow at queue 95%",
               _droptail(_attack("queue-drop", fill_threshold=0.95)),
               ("seed", "fill_threshold", "tau", "n_sources")),
    TestbedRow("fig6_9", "attack4-syn", "Fig 6.9: SYN-drop a connecting host",
               _droptail(_SYN_DROP, with_connector=True), _LOAD),
    TestbedRow("fig6_11", "red-no-attack", "Fig 6.11: RED, no attack",
               _red(), _LOAD),
    TestbedRow("fig6_12", "red-attack1-45k",
               "Fig 6.12: RED drop above 45,000 bytes",
               _red(_red_avg(45_000)),
               ("seed", "avg_threshold", "n_sources")),
    TestbedRow("fig6_13", "red-attack2-54k",
               "Fig 6.13: RED drop above 54,000 bytes",
               _red(_red_avg(54_000), end=600.0, n_sources=12),
               ("seed", "avg_threshold", "n_sources")),
    TestbedRow("fig6_14", "red-attack3-10pct",
               "Fig 6.14: RED drop 10% above 45,000 bytes",
               _red(_red_avg(45_000, 0.10), end=500.0),
               ("seed", "fraction", "avg_threshold")),
    TestbedRow("fig6_15", "red-attack4-5pct",
               "Fig 6.15: RED drop 5% above 45,000 bytes",
               _red(_red_avg(45_000, 0.05), end=700.0),
               ("seed", "fraction", "avg_threshold")),
    TestbedRow("fig6_16", "red-attack5-syn", "Fig 6.16: RED SYN-drop",
               _red(_SYN_DROP, with_connector=True), ("seed",)),
)


@dataclass
class NsSimPoint(EvalResultBase):
    drop_rate: float
    detected: bool
    detection_latency_rounds: Optional[int]
    false_positive_rounds: int
    malicious_drops: int


def fig6_3_ns_simulation(
    rates: Sequence[float] = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5),
    seed: int = 0,
) -> List[NsSimPoint]:
    """Fig 6.3: χ detection across attack intensities (NS-style sweep)."""
    points = []
    for rate in rates:
        result = run_testbed(f"ns-{rate}", _droptail(
            _attack("drop" if rate else "none", rate, seed_offset=7),
            seed=seed))
        points.append(NsSimPoint(
            drop_rate=rate,
            detected=result.detected,
            detection_latency_rounds=result.metrics.detection_latency_rounds,
            false_positive_rounds=result.metrics.false_positive_rounds,
            malicious_drops=result.malicious_drops_truth,
        ))
    return points


@dataclass
class ThresholdComparison(EvalResultBase):
    """§6.4.3: χ vs static thresholds on the same pair of traces.

    The paper's argument is quantified two ways: a threshold low enough
    to catch anything false-positives on the pure-congestion trace, and
    any threshold grants the attacker all the drops it lands in rounds
    whose total stays at or below it (``static_free_drops``) — χ grants
    none while raising no false alarm.
    """

    thresholds: List[int]
    static_fp_rounds: Dict[int, int]  # benign-trace alarms per threshold
    static_detected: Dict[int, bool]  # subtle-attack trace detection
    static_free_drops: Dict[int, int]  # malicious drops below the radar
    chi_fp_rounds: int
    chi_detected: bool
    total_malicious_drops: int
    benign_max_losses: int
    attack_mean_losses: float

    def unsound_thresholds(self) -> List[int]:
        """Thresholds that false-positive, miss, or grant free drops."""
        return [t for t in self.thresholds
                if self.static_fp_rounds[t] > 0
                or not self.static_detected[t]
                or self.static_free_drops[t] > 0]


def chi_vs_static_threshold(
    thresholds: Sequence[int] = (1, 2, 5, 10, 15, 20, 30, 50),
    seed: int = 0,
) -> ThresholdComparison:
    """Run a congestion-only trace and a subtle-attack trace; score both
    χ and per-round static loss thresholds on each."""
    attack_at, tau = 50.0, 2.0
    first_attack_round = int(attack_at / tau)
    benign = run_testbed("benign", _droptail(
        seed=seed, tau=tau, attack_at=attack_at))
    attack = run_testbed("subtle", _droptail(
        _attack("queue-drop", fill_threshold=0.90),
        seed=seed, tau=tau, attack_at=attack_at))
    benign_losses = [drops for (_r, drops, _c, _conf, _a) in benign.rounds]
    attack_losses = {r: drops for (r, drops, _c, _conf, _a) in attack.rounds}
    attack_round_losses = [d for r, d in attack_losses.items()
                           if r >= first_attack_round]
    static_fp: Dict[int, int] = {}
    static_det: Dict[int, bool] = {}
    static_free: Dict[int, int] = {}
    for t in thresholds:
        static_fp[t] = sum(1 for losses in benign_losses if losses > t)
        static_det[t] = any(d > t for d in attack_round_losses)
        static_free[t] = sum(
            attack.malicious_by_round.get(r, 0)
            for r, total in attack_losses.items()
            if r >= first_attack_round and total <= t
        )
    return ThresholdComparison(
        thresholds=list(thresholds),
        static_fp_rounds=static_fp,
        static_detected=static_det,
        static_free_drops=static_free,
        chi_fp_rounds=(benign.false_positives
                       + attack.metrics.false_positive_rounds),
        chi_detected=attack.detected,
        total_malicious_drops=attack.malicious_drops_truth,
        benign_max_losses=max(benign_losses) if benign_losses else 0,
        attack_mean_losses=(sum(attack_round_losses) / len(attack_round_losses)
                            if attack_round_losses else 0.0),
    )


# ---------------------------------------------------------------------------
# Packet-plane protocol benches — Π2 / Πk+2
# ---------------------------------------------------------------------------

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


def _run_protocol_bench(name: str, protocol_name: str, *,
                        seed: int = 0,
                        bad_router: str = "r3",
                        fraction: float = 0.5,
                        rate_bps: int = 600_000,
                        duration: float = 4.0,
                        end: float = 7.0) -> ProtocolBenchResult:
    from repro.core import accuracy_report, arm_protocol, completeness_report
    from repro.net import (MBPS, CBRSource, Network, chain,
                           install_static_routes)

    net = Network(chain(6, bandwidth=10 * MBPS, delay=0.001))
    protocol = arm_protocol(net, install_static_routes(net), protocol_name)
    net.routers[bad_router].compromise = AdversarySpec(
        "drop", fraction).build(net, bad_router, ["f1", "f2"], seed)
    CBRSource(net, "r1", "r6", "f1", rate_bps=rate_bps, duration=duration)
    CBRSource(net, "r6", "r1", "f2", rate_bps=rate_bps, duration=duration)
    net.run(end)
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
        sim_events=net.sim.events_dispatched,
    )


def pi2_bench(seed: int = 0, bad_router: str = "r3",
              fraction: float = 0.5,
              rate_bps: int = 600_000) -> ProtocolBenchResult:
    """Seeded Π2 packet-plane run on a 6-router chain (Appendix B)."""
    return _run_protocol_bench("pi2-bench", "pi2", seed=seed,
                               bad_router=bad_router, fraction=fraction,
                               rate_bps=rate_bps)


def pik2_bench(seed: int = 0, bad_router: str = "r3",
               fraction: float = 0.5,
               rate_bps: int = 600_000) -> ProtocolBenchResult:
    """Seeded Πk+2 packet-plane run on a 6-router chain (Appendix B)."""
    return _run_protocol_bench("pik2-bench", "pik2", seed=seed,
                               bad_router=bad_router, fraction=fraction,
                               rate_bps=rate_bps)


# ---------------------------------------------------------------------------
# Attack matrices — topology x placement x behavior x rate grid cells
# ---------------------------------------------------------------------------

@dataclass
class AttackMatrixResult(EvalResultBase):
    """One attack-matrix cell: Π detection scored against ground truth.

    ``precision`` is the fraction of suspicions (across correct routers)
    that actually cover the compromised router; ``recall`` the fraction
    of correct routers whose detector caught it (FI completeness);
    ``latency`` the virtual seconds from adversary activation to the end
    of the first covering suspicion interval, ``None`` when undetected
    (the sweep aggregator skips None, so its ``n`` records coverage).
    For ``behavior="none"`` control cells ground truth is empty, so
    precision 1.0 means "no false alarms" and recall is trivially 1.0.
    """

    topology: str
    behavior: str
    placement_strategy: str
    adversary_router: str
    rate: float
    detected: bool
    precision: float
    recall: float
    latency: Optional[float]
    total_suspicions: int
    false_suspicions: int
    segment_precision: int
    sim_events: int


def attack_matrix(topology: str = "abilene",
                  adversary: Optional[dict] = None,
                  placement: Optional[dict] = None,
                  traffic: Optional[dict] = None,
                  detector: str = "pi2",
                  tau: float = 1.0,
                  rounds: int = 3,
                  seed: int = 0) -> AttackMatrixResult:
    """One cell of the WedgeTail-style per-topology attack matrix.

    Builds the :class:`~repro.eval.specs.ScenarioSpec` the parameters
    describe (nested dicts arrive from dotted ``--grid`` keys such as
    ``adversary.rate``), runs the armed Π2 or Πk+2 ``detector`` and
    scores detection precision/recall/latency against the placed
    adversary.
    """
    from repro.core import accuracy_report, completeness_report
    from repro.eval.scenarios import AttackScenario, build_scenario

    spec = ScenarioSpec(topology=topology, adversary=adversary,
                        placement=placement, traffic=traffic,
                        detector=detector, tau=tau, rounds=rounds, seed=seed)
    scenario = build_scenario(spec)
    if not isinstance(scenario, AttackScenario):
        raise ValueError(
            "attack_matrix needs a routed catalogue topology; the "
            "'simple' emulation testbed has its own experiments")
    scenario.run()

    states = scenario.protocol.states
    bad = scenario.adversary_router
    truth = set() if spec.adversary.behavior == "none" else {bad}
    acc = accuracy_report(states, truth,
                          max_precision=scenario.protocol.precision)
    comp = completeness_report(states, truth)

    total = acc.total_suspicions
    precision = (acc.accurate_suspicions / total) if total else 1.0
    if truth:
        correct = [router for router in states if router != bad]
        hits = sum(1 for router in correct
                   if bad in comp.per_router_detected.get(router, set()))
        recall = (hits / len(correct)) if correct else 0.0
        detected = bad in comp.detected
    else:
        recall = 1.0
        detected = False

    latency: Optional[float] = None
    if truth:
        covering = [s.interval[1]
                    for state in states.values()
                    for s in state.suspicions if s.contains(bad)]
        if covering:
            latency = min(covering) - scenario.attack_at

    return AttackMatrixResult(
        topology=spec.topology.name,
        behavior=spec.adversary.behavior,
        placement_strategy=spec.placement.strategy,
        adversary_router=bad,
        rate=spec.adversary.rate,
        detected=detected,
        precision=precision,
        recall=recall,
        latency=latency,
        total_suspicions=total,
        false_suspicions=total - acc.accurate_suspicions,
        segment_precision=acc.precision,
        sim_events=scenario.network.sim.events_dispatched,
    )


# ---------------------------------------------------------------------------
# Baseline demonstrations (Ch. 3 figures)
# ---------------------------------------------------------------------------

@dataclass
class BaselineDemo(EvalResultBase):
    name: str
    description: str
    values: Dict[str, object] = field(default_factory=dict)


def watchers_flaw_demo() -> BaselineDemo:
    """Fig 3.3: consorting routers evade WATCHERS; the fix catches them."""
    from repro.baselines.watchers import (WatchersFault, WatchersFlow,
                                          WatchersProtocol)
    from repro.net import chain

    topo = chain(5)
    flows = [WatchersFlow(("r1", "r2", "r3", "r4", "r5"), 10_000.0)]

    def inflate(claims):
        return {key: (value * 2 if key[1] == "r3" and key[2] == "r4"
                      else value)
                for key, value in claims.items()}

    consorting = {
        "r3": WatchersFault(drop_fraction=lambda f: 0.5, misreport=inflate),
        "r4": WatchersFault(),
    }
    plain = WatchersProtocol(topo, flows, consorting).run_round()
    fixed = WatchersProtocol(topo, flows, consorting, improved=True).run_round()
    return BaselineDemo(
        name="watchers-consorting",
        description="consorting c,d evade original WATCHERS; fix detects",
        values={
            "original_detections": sorted(plain.detected_links()),
            "original_detects_attacker": plain.detects_router("r3"),
            "fixed_detections": sorted(fixed.detected_links()),
            "fixed_detects_attacker": fixed.detects_router("r3"),
        },
    )


def perlman_collusion_demo() -> BaselineDemo:
    """Fig 3.8: colluding b, e frame the correct link ⟨c, d⟩ in PERLMANd."""
    from repro.baselines.pathmodel import FaultyNode, PathModel
    from repro.baselines.perlman import (perlman_per_hop_acks,
                                         perlman_route_setup)

    path = ["a", "b", "c", "d", "e", "f"]
    faulty = {
        # e drops the data packet so it never reaches f.
        "e": FaultyNode(drop_data=lambda r, p: True),
        # b suppresses acks from routers beyond c.
        "b": FaultyNode(drop_protocol=lambda r, origin, kind:
                        origin in ("d", "e", "f")),
    }
    model = PathModel(path, faulty)
    outcome = perlman_per_hop_acks(model)
    robust = perlman_route_setup(model)
    return BaselineDemo(
        name="perlman-collusion",
        description="PERLMANd frames ⟨c,d⟩; route-setup variant suspects "
                    "the whole path (low precision, but accurate)",
        values={
            "perlmand_suspected": outcome.suspected,
            "perlmand_framed_correct_link": outcome.framing,
            "route_setup_suspected": robust.suspected,
        },
    )


def sectrace_framing_demo() -> BaselineDemo:
    """Fig 3.7: b attacks only after being validated, framing ⟨c, d⟩."""
    from repro.baselines.pathmodel import FaultyNode, PathModel
    from repro.baselines.sectrace import secure_traceroute

    path = ["a", "b", "c", "d", "e"]
    faulty = {
        # b is validated in round 1 (its own validation round) and begins
        # dropping afterwards — the framing scenario of §3.6.
        "b": FaultyNode(drop_data=lambda r, p: True, active_from_round=3),
    }
    outcome = secure_traceroute(PathModel(path, faulty))
    return BaselineDemo(
        name="sectrace-framing",
        description="late-activating b makes SecTrace blame ⟨c,d⟩",
        values={
            "detected": outcome.detected_link,
            "framed_correct_link": outcome.framing,
            "rounds": outcome.rounds,
        },
    )


def awerbuch_localization_demo(path_length: int = 9) -> BaselineDemo:
    """§3.5: binary search localizes a persistent dropper in log M rounds."""
    from repro.baselines.awerbuch import awerbuch_binary_search
    from repro.baselines.pathmodel import FaultyNode, PathModel

    path = [f"n{i}" for i in range(path_length)]
    bad = path[path_length // 2 + 1]
    model = PathModel(path, {bad: FaultyNode(drop_data=lambda r, p: True)})
    outcome = awerbuch_binary_search(model)
    return BaselineDemo(
        name="awerbuch-binary-search",
        description="adaptive probing pins the dropper's link",
        values={
            "detected": outcome.detected_link,
            "rounds": outcome.rounds,
            "log2_bound": math.ceil(math.log2(path_length)),
            "contains_attacker": (outcome.detected_link is not None
                                  and bad in outcome.detected_link),
        },
    )


# ---------------------------------------------------------------------------
# §6.1.2 — why traffic modeling is not enough
# ---------------------------------------------------------------------------

@dataclass
class ModelingComparison(EvalResultBase):
    predicted_loss_prob: float
    observed_loss_rate: float
    relative_error: float


def traffic_modeling_comparison(seed: int = 0) -> ModelingComparison:
    """Compare Appenzeller-model loss predictions with simulated reality.

    The paper verified Q's normality but found (µ, σ) predictions too
    rough for detection; this experiment quantifies the gap on our
    testbed."""
    from repro.core import appenzeller_loss_probability, appenzeller_sigma
    from repro.eval.scenarios import build_scenario
    from repro.net import MBPS

    scenario = build_scenario(droptail_spec(n_sources=3, seed=seed))
    scenario.network.run(120.0)
    queue = scenario.bottleneck_queue
    offered = queue.enqueues + queue.drops
    observed = queue.drops / offered if offered else 0.0
    capacity_pps = (1.0 * MBPS) / 1000.0
    sigma = appenzeller_sigma(propagation_delay=0.009,
                              capacity_pps=capacity_pps,
                              buffer_packets=30.0, n_flows=3)
    predicted = appenzeller_loss_probability(30.0, sigma)
    rel = (abs(predicted - observed) / observed) if observed else float("inf")
    return ModelingComparison(predicted_loss_prob=predicted,
                              observed_loss_rate=observed,
                              relative_error=rel)


# ---------------------------------------------------------------------------
# §2.4.3 — response strategy ablation
# ---------------------------------------------------------------------------

@dataclass
class ResponseImpact(EvalResultBase):
    strategy: str  # "segment" | "router"
    unreachable_pairs: int
    mean_stretch: float  # constrained/unconstrained shortest-path cost
    max_stretch: float


def response_strategy_ablation(
    topology_name: str = "abilene",
    suspicions: Sequence[Tuple[str, ...]] = (
        ("Denver", "KansasCity", "Indianapolis"),
        ("Houston", "KansasCity", "Indianapolis"),
        ("Denver", "KansasCity", "Houston"),
    ),
) -> Dict[str, ResponseImpact]:
    """Compare the paper's two countermeasures (§2.4.3).

    * **segment** — remove only the suspected path-segments from the
      routing fabric (the paper's choice: "less disruptive").
    * **router** — remove every suspected router entirely.

    Returns per-strategy reachability and path-stretch impact.
    """
    from repro.net.routing import compute_all_paths, shortest_path_avoiding

    topo = _topology(topology_name)
    base = compute_all_paths(topo)

    def cost(path) -> float:
        return sum(topo.link(a, b).metric for a, b in zip(path, path[1:]))

    results: Dict[str, ResponseImpact] = {}
    for strategy in ("segment", "router"):
        if strategy == "segment":
            constraints = list(suspicions)
        else:
            bad_routers = sorted({r for seg in suspicions for r in seg[1:-1]}
                                 or {r for seg in suspicions for r in seg})
            # Removing a router = excluding every link incident to it.
            constraints = []
            for r in bad_routers:
                for nbr in topo.neighbors(r):
                    constraints.append((r, nbr))
                    constraints.append((nbr, r))
        unreachable = 0
        stretches: List[float] = []
        for (src, dst), path in base.items():
            if strategy == "router" and (
                    src in {r for c in constraints for r in c}
                    and topo.degree(src) == 0):
                continue
            constrained = shortest_path_avoiding(topo, src, dst, constraints)
            if constrained is None:
                unreachable += 1
                continue
            stretches.append(cost(constrained) / max(cost(path), 1e-12))
        results[strategy] = ResponseImpact(
            strategy=strategy,
            unreachable_pairs=unreachable,
            mean_stretch=(sum(stretches) / len(stretches)
                          if stretches else float("inf")),
            max_stretch=max(stretches) if stretches else float("inf"),
        )
    return results
