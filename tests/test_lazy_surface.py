"""repro.eval, repro.obs and repro.sweep resolve ``__all__`` on first access.

The packages import nothing themselves; each exported name is imported
from the submodule that defines it when first read.  What must not move:
``__all__`` and the identity of every exported object.  Import-order
cases run in a fresh interpreter, where nothing else has imported the
submodules yet.  So do the registry cases: a lookup builds only the
experiment it is asked for.
"""

import json
import os
import subprocess
import sys
import warnings

import pytest

import repro.eval
import repro.obs
import repro.sweep

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
    "repro.sweep": {
        "merge": ("merge_sweeps",),
        "runner": ("SweepConfig", "SweepResult", "run_sweep"),
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
    "repro.sweep": ["SweepConfig", "SweepResult", "merge_sweeps",
                    "run_sweep"],
}
PACKAGES = {"repro.eval": repro.eval, "repro.obs": repro.obs,
            "repro.sweep": repro.sweep}


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


#: ``repro list`` order, which a failed lookup lists in full.
BUILT_IN = [
    "fig5_2", "fig5_4", "overhead", "fig5_7", "fig6_3", "fig6_5", "fig6_6",
    "chi", "pi2_bench", "pik2_bench", "tcp_heavy", "adversary_heavy",
    "fig6_7", "fig6_8", "fig6_9", "fig6_11", "fig6_12", "fig6_13",
    "fig6_14", "fig6_15", "fig6_16", "threshold", "response", "baselines",
    "modeling", "attack_matrix"]


def test_a_lookup_loads_only_its_experiments_module():
    loaded = fresh(
        "import json, sys\n"
        "from repro.eval import registry\n"
        "registry.get('pik2_bench')\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.startswith('repro.'))))\n")
    assert loaded == ["repro._params", "repro._surface", "repro.eval",
                      "repro.eval.benches", "repro.eval.registry",
                      "repro.eval.results"]


def test_only_a_testbed_lookup_builds_the_testbed_specs():
    built = fresh(
        "import json\n"
        "from repro.eval import registry, specs\n"
        "count = [0]\n"
        "post_init = specs.ScenarioSpec.__post_init__\n"
        "def counted(self):\n"
        "    count[0] += 1\n"
        "    post_init(self)\n"
        "specs.ScenarioSpec.__post_init__ = counted\n"
        "seen = []\n"
        "for name in %r:\n"
        "    registry.get(name)\n"
        "    seen.append(count[0])\n"
        "print(json.dumps(seen))\n"
        % (["fig5_2", "overhead", "fig5_7", "fig6_3", "pi2_bench",
            "threshold", "response", "baselines", "modeling",
            "attack_matrix", "fig6_5", "fig6_16", "chi"],))
    # One ScenarioSpec per χ testbed row, all at the first χ lookup.
    assert built == [0] * 10 + [14] * 3


def test_a_failed_lookup_lists_every_experiment():
    message = fresh(
        "import json\n"
        "from repro.eval import registry\n"
        "try:\n"
        "    registry.get('nope')\n"
        "except KeyError as error:\n"
        "    print(json.dumps(error.args[0]))\n")
    assert message == ("unknown experiment 'nope'; available: "
                       + ", ".join(BUILT_IN))


def test_a_plugin_registered_first_follows_the_built_in_rows():
    order = fresh(
        "import json\n"
        "from repro.eval import registry\n"
        "registry.register(registry.ExperimentSpec(\n"
        "    'plugin', registry.baseline_demos, registry.report_baselines))\n"
        "print(json.dumps([registry.get('plugin').name, registry.names()]))\n")
    assert order == ["plugin", BUILT_IN + ["plugin"]]
