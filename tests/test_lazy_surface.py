"""repro.eval and repro.obs resolve their ``__all__`` on first access.

The packages import nothing themselves; each exported name is imported
from the submodule that defines it when first read.  What must not move:
``__all__`` and the identity of every exported object.  Import-order
cases run in a fresh interpreter, where nothing else has imported the
submodules yet.
"""

import json
import os
import subprocess
import sys
import warnings

import pytest

import repro.eval
import repro.obs

SRC = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", "src"))

#: Where each exported name is defined: the parent commit's re-export
#: imports, with the χ testbed's spec constructors now beside ScenarioSpec.
DEFINED_IN = {
    "repro.eval": {
        "metrics": ("DetectionMetrics", "score_round_findings"),
        "results": ("EvalResultBase", "result_type_name",
                    "serialize_result"),
        "specs": ("AdversarySpec", "BEHAVIORS", "DETECTORS",
                  "PLACEMENT_STRATEGIES", "PlacementSpec", "ScenarioSpec",
                  "TopologySpec", "TrafficSpec", "register_topology",
                  "resolve_ground_truth", "topology_names",
                  "transit_candidates", "droptail_spec", "red_spec"),
        "scenarios": ("AttackScenario", "BottleneckScenario",
                      "build_scenario"),
        "experiments": ("experiments",),
        "registry": ("registry",),
    },
    "repro.obs": {
        "diff": ("DiffReport", "diff_sweeps"),
        "forensics": ("RouterExplanation", "VerdictReport",
                      "explain_router", "explain_sweep", "flow_timeline"),
        "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry",
                    "merge_snapshots"),
        "query": ("QueryFilter", "TraceEvent", "TraceReader",
                  "trace_files"),
        "record": ("Recorder", "recorder"),
        "sinks": ("JsonlSink", "MemorySink", "NullSink"),
        "profile": ("profile",),
        "telemetry": ("telemetry",),
    },
}

#: ``__all__`` as the parent commit's eager packages had it.
ALL_AT_PARENT = {
    "repro.eval": [
        "experiments", "registry", "DetectionMetrics", "EvalResultBase",
        "result_type_name", "score_round_findings", "serialize_result",
        "AdversarySpec", "BEHAVIORS", "DETECTORS", "PLACEMENT_STRATEGIES",
        "PlacementSpec", "ScenarioSpec", "TopologySpec", "TrafficSpec",
        "register_topology", "resolve_ground_truth", "topology_names",
        "transit_candidates", "AttackScenario", "BottleneckScenario",
        "build_scenario", "droptail_spec", "red_spec"],
    "repro.obs": [
        "profile", "telemetry", "Counter", "DiffReport", "Gauge",
        "Histogram", "JsonlSink", "MemorySink", "MetricsRegistry",
        "NullSink", "QueryFilter", "Recorder", "RouterExplanation",
        "TraceEvent", "TraceReader", "VerdictReport", "diff_sweeps",
        "explain_router", "explain_sweep", "flow_timeline",
        "merge_snapshots", "recorder", "trace_files"],
}
PACKAGES = {"repro.eval": repro.eval, "repro.obs": repro.obs}


def fresh(code):
    """Run *code* in a new interpreter; return what it printed as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("package", sorted(PACKAGES))
def test_all_is_the_parent_commits(package):
    module = PACKAGES[package]
    assert module.__all__ == ALL_AT_PARENT[package]
    assert sorted(name for names in DEFINED_IN[package].values()
                  for name in names) == sorted(module.__all__)


@pytest.mark.parametrize("package, submodule, name", [
    (package, submodule, name)
    for package, table in sorted(DEFINED_IN.items())
    for submodule, names in sorted(table.items()) for name in names])
def test_export_is_the_defining_submodules_object(package, submodule, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exported = getattr(PACKAGES[package], name)
    defining = sys.modules[f"{package}.{submodule}"]
    expected = defining if name == submodule else getattr(defining, name)
    assert exported is expected


def test_a_name_loads_only_its_own_submodules():
    loaded = fresh(
        "import json, sys\n"
        "import repro.eval, repro.obs\n"
        "bare = sorted(m for m in sys.modules if m.startswith('repro.'))\n"
        "from repro.obs import recorder\n"
        "obs = sorted(m for m in sys.modules if m.startswith('repro.'))\n"
        "from repro.eval import registry\n"
        "print(json.dumps([bare, obs, sorted(sys.modules)]))\n")
    bare, obs, everything = loaded
    assert bare == ["repro._surface", "repro.eval", "repro.obs"]
    assert obs == bare + ["repro.obs.metrics", "repro.obs.record",
                          "repro.obs.sinks"]
    heavy = ("repro.net", "repro.core", "repro.crypto", "repro.dist",
             "repro.baselines", "repro.eval.scenarios", "repro.obs.query")
    assert not [m for m in everything if m.startswith(heavy)]


def test_specs_bandwidth_unit_is_the_simulators():
    # specs keeps its own copy so that building a spec needs no simulator.
    import repro.net
    from repro.eval.specs import _MBPS

    assert _MBPS == repro.net.MBPS
