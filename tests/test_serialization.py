"""What an eval result serialises to: its dataclass fields plus ``derived``.

No result type writes its own ``to_dict``; the schema checks below hold
for every ``EvalResultBase`` subclass, and ``goldens/result_dumps.json``
(captured from the last commit with hand-written serialisers) pins the
bytes, key order included, of one seed-0 run per result type.
"""

import dataclasses
import hashlib
import json
import os

import pytest

from repro.eval import EvalResultBase, registry, serialize_result
from repro.eval import experiments as ex
from repro.eval.experiments import (
    AttackMatrixResult,
    BaselineDemo,
    ConfidenceCurve,
    FatihTimelineResult,
    ModelingComparison,
    NsSimPoint,
    PrCurve,
    ProtocolBenchResult,
    ResponseImpact,
    ScenarioResult,
    StateOverheadResult,
    ThresholdComparison,
)
from repro.eval.metrics import DetectionMetrics

GOLDENS = os.path.join(os.path.dirname(__file__), "goldens",
                       "result_dumps.json")


def make_metrics():
    return DetectionMetrics(attack_rounds=10, benign_rounds=20,
                            true_positive_rounds=4,
                            false_positive_rounds=1,
                            detection_round=25,
                            detection_latency_rounds=0)


def make_scenario_result():
    return ScenarioResult(
        name="attack1-drop20pct",
        metrics=make_metrics(),
        total_drops=37,
        congestive_drops=13,
        malicious_drops_truth=28,
        candidate_drops=24,
        rounds=[(10, 3, 1, 0.42, False), (25, 9, 8, 0.99, True)],
        malicious_by_round={25: 11, 26: 3},
        extra={"victim_goodput_pps": 17.4},
    )


def make_fatih():
    return FatihTimelineResult(convergence_time=42.0, attack_time=117.0,
                               first_detection=122.0, reroute_time=131.0,
                               rtt_before=0.050, rtt_after=0.056,
                               suspected_segments=[("a", "b", "c")],
                               probes_lost=5)


#: One instance of every result type.
SAMPLES = [
    make_metrics(),
    make_scenario_result(),
    make_fatih(),
    PrCurve("ebone", "pi2", {1: {"max": 9.0, "mean": 4.5, "median": 4.0},
                             2: {"max": 20.0, "mean": 11.0, "median": 10.0}}),
    StateOverheadResult("sprintlink", 13608.0, 99225.0,
                        {2: {"mean": 829.0, "max": 1156.0}}),
    NsSimPoint(0.2, True, 0, 0, 31),
    ConfidenceCurve(30000.0, 0.0, 1000.0, [(0.0, 0.0), (30000.0, 1.0)]),
    ThresholdComparison(thresholds=[1, 5],
                        static_fp_rounds={1: 3, 5: 0},
                        static_detected={1: True, 5: False},
                        static_free_drops={1: 0, 5: 12},
                        chi_fp_rounds=0, chi_detected=True,
                        total_malicious_drops=40,
                        benign_max_losses=4,
                        attack_mean_losses=2.5),
    ProtocolBenchResult("pi2-bench", "pi2", "r3", 12, True, True, 2, 9000),
    AttackMatrixResult("line", "drop", "fixed", "r3", 0.5, True, 1.0, 0.8,
                       1.0, 8, 0, 2, 9000),
    BaselineDemo("demo", "desc", {"links": [("a", "b")], "detected": True}),
    ModelingComparison(0.01, 0.003, 2.3),
    ResponseImpact("segment", 0, 1.08, 1.4),
]


def result_types():
    return [cls for cls in EvalResultBase.__subclasses__()
            if cls.__module__.startswith("repro.")]


class TestDerivedSchema:
    def test_samples_cover_every_result_type(self):
        assert {type(s) for s in SAMPLES} == set(result_types())

    def test_no_result_type_writes_its_own_to_dict(self):
        for cls in result_types():
            assert "to_dict" not in vars(cls), cls.__name__

    @pytest.mark.parametrize("result", SAMPLES,
                             ids=lambda r: type(r).__name__)
    def test_keys_are_fields_then_derived(self, result):
        fields = [f.name for f in dataclasses.fields(result)]
        assert list(result.to_dict()) == fields + list(result.derived)


class TestDetectionMetrics:
    def test_json_safe(self):
        json.dumps(make_metrics().to_dict())

    def test_derived_fields_exported(self):
        data = make_metrics().to_dict()
        assert data["detected"] is True
        assert data["recall"] == 0.4


class TestScenarioResult:
    def test_json_keys_are_strings(self):
        data = json.loads(json.dumps(make_scenario_result().to_dict()))
        assert data["malicious_by_round"] == {"25": 11, "26": 3}

    def test_nested_result_and_tuple_rows(self):
        data = make_scenario_result().to_dict()
        assert data["metrics"] == make_metrics().to_dict()
        assert data["rounds"][1] == [25, 9, 8, 0.99, True]
        assert data["detected"] is True


class TestOtherResults:
    def test_all_json_safe(self):
        for result in SAMPLES:
            data = result.to_dict()
            assert json.loads(json.dumps(data)) == data
            assert serialize_result(result) == data

    def test_fatih_exports_derived_latencies(self):
        data = make_fatih().to_dict()
        assert data["detection_latency"] == 5.0
        assert data["response_latency"] == 14.0
        assert data["suspected_segments"] == [["a", "b", "c"]]


# -- golden dumps -------------------------------------------------------------

def _golden_run(name):
    if name == "fig6_2":
        return ex.fig6_2_confidence_curve()
    if name == "fig6_3_two_rates":
        return ex.fig6_3_ns_simulation(rates=(0.0, 0.2))
    spec = registry.get(name)
    return spec.run(**({"seed": 0} if spec.accepts_seed else {}))


def _load_goldens():
    with open(GOLDENS) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def golden_results():
    return {name: _golden_run(name) for name in _load_goldens()}


@pytest.mark.parametrize("name", sorted(_load_goldens()))
def test_seed0_dump_is_byte_identical(name, golden_results):
    # Unsorted dump: the key order is part of the schema.
    text = json.dumps(serialize_result(golden_results[name]))
    assert hashlib.sha256(text.encode()).hexdigest() == _load_goldens()[name]


def test_golden_dumps_cover_every_result_type(golden_results):
    produced = set()

    def collect(value):
        if isinstance(value, EvalResultBase):
            produced.add(type(value))
            value = [getattr(value, f.name)
                     for f in dataclasses.fields(value)]
        elif isinstance(value, dict):
            value = list(value.values())
        if isinstance(value, (list, tuple)):
            for item in value:
                collect(item)

    collect(golden_results)
    assert produced == set(result_types())
