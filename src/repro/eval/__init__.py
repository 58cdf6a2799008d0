"""Evaluation harness: metrics, typed scenario specs, the paper's experiments.

Every table/figure of the paper's evaluation is an experiment in
:mod:`repro.eval.registry`; benches, tests and examples all run the
same ones so results are consistent everywhere.  Scenarios are
described by the typed, serializable specs of :mod:`repro.eval.specs`
and built with :func:`build_scenario` — an :class:`AttackScenario` on a
routed topology, a :class:`BottleneckScenario` on the χ testbed, whose
figures are rows of ``experiments.TESTBED_ROWS`` over one runner.

Only ``scenarios`` imports the simulator at its top; the registry,
specs, results and metrics are metadata, and an experiment imports what
it simulates when it runs.  Each name below is imported from its
submodule on first access, and the registry builds an experiment when
it is first looked up, so looking one up loads its own module and no
simulator code: a warm ``repro sweep pik2_bench`` loads the registry
and the chain benches, not ``experiments`` or ``specs`` (``repro list``
builds them all).

The supported surface is exactly ``__all__``.  The ``experiments`` and
``registry`` submodules are part of that promise (they are how sweeps
and plugins address experiment functions); the remaining submodules are
internal, and the ``API001`` lint rule flags in-repo imports that bypass
the package for exported names.
"""

from repro._surface import lazy_exports as _lazy_exports

__all__ = [
    "experiments",
    "registry",
    "DetectionMetrics",
    "EvalResultBase",
    "result_type_name",
    "score_round_findings",
    "serialize_result",
    "AdversarySpec",
    "BEHAVIORS",
    "DETECTORS",
    "PLACEMENT_STRATEGIES",
    "PlacementSpec",
    "ScenarioSpec",
    "TopologySpec",
    "TrafficSpec",
    "resolve_ground_truth",
    "topology_names",
    "transit_candidates",
    "AttackScenario",
    "BottleneckScenario",
    "build_scenario",
    "droptail_spec",
    "red_spec",
]

_lazy_exports(globals(), {
    "metrics": ("DetectionMetrics", "score_round_findings"),
    "results": ("EvalResultBase", "result_type_name", "serialize_result"),
    "specs": ("AdversarySpec", "BEHAVIORS", "DETECTORS",
              "PLACEMENT_STRATEGIES", "PlacementSpec", "ScenarioSpec",
              "TopologySpec", "TrafficSpec", "resolve_ground_truth",
              "topology_names", "transit_candidates", "droptail_spec",
              "red_spec"),
    "scenarios": ("AttackScenario", "BottleneckScenario", "build_scenario"),
})
