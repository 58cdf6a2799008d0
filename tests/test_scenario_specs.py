"""The typed scenario-spec API and its sweep integration.

Covers the four spec layers (topology / adversary / placement /
traffic), serialization byte-stability, placement determinism, the χ
testbed's row table (every row a spec that round-trips, builds and
keeps its historical parameter table), dotted ``--grid`` parameter
folding/validation, and an end-to-end
``attack_matrix`` sweep whose aggregate must be bit-identical across
runs with the same root seed.
"""

import ast
import dataclasses
import hashlib
import json
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.core import FatihSystem, ProtocolPi2, ProtocolPiK2
from repro.eval import (
    AdversarySpec,
    BEHAVIORS,
    BottleneckScenario,
    DETECTORS,
    PLACEMENT_STRATEGIES,
    PlacementSpec,
    ScenarioSpec,
    TopologySpec,
    TrafficSpec,
    build_scenario,
    resolve_ground_truth,
    topology_names,
    transit_candidates,
)
from repro.eval import experiments as ex, registry
from repro.eval.registry import ParamError, get as get_experiment
from repro.eval.specs import FATIH_TRAFFIC_AT, droptail_spec
from repro.net import (
    DropFlowAttack,
    QueueConditionalDropAttack,
    REDAverageConditionalDropAttack,
    SynDropAttack,
    abilene,
    chain,
    ring,
)
from repro.obs import MemorySink, recorder
from repro._params import fold_dotted_params
from tests.strategies import scenario_specs


def canonical(spec) -> str:
    return json.dumps(spec.to_dict(), sort_keys=True)


class TestSpecRoundTrip:
    SPECS = [
        ScenarioSpec(),
        ScenarioSpec(topology={"name": "ebone_like"},
                     adversary={"behavior": "modify", "rate": 0.5},
                     placement={"strategy": "max-betweenness"},
                     traffic={"kind": "cbr", "flows": 3},
                     tau=2.0, rounds=4, seed=7),
        ScenarioSpec(topology=TopologySpec("grid", options={"rows": 2}),
                     adversary=AdversarySpec("fabricate", targeting="all",
                                             options={"rate_pps": 50.0}),
                     placement=PlacementSpec("fixed", router="r1x2"),
                     traffic=TrafficSpec("tcp", flows=1)),
    ]

    @pytest.mark.parametrize("spec", SPECS)
    def test_roundtrip_is_byte_stable(self, spec):
        once = canonical(spec)
        again = canonical(ScenarioSpec.from_dict(json.loads(once)))
        assert once == again

    def test_sub_spec_roundtrips(self):
        for spec in (TopologySpec("ring", options={"n": 5}),
                     AdversarySpec("delay", rate=0.2),
                     PlacementSpec("articulation-point"),
                     TrafficSpec("cbr", rate_bps=1e6)):
            rebuilt = type(spec).from_dict(spec.to_dict())
            assert rebuilt == spec
            assert (json.dumps(rebuilt.to_dict(), sort_keys=True)
                    == json.dumps(spec.to_dict(), sort_keys=True))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="strateggy"):
            PlacementSpec.from_dict({"strateggy": "fixed"})
        with pytest.raises(ValueError, match="behaviour"):
            AdversarySpec.from_dict({"behaviour": "drop"})
        with pytest.raises(ValueError) as error:
            TrafficSpec.from_dict({"x": 1})
        assert str(error.value) == ("unknown traffic key(s) 'x'; accepted: "
                                    "kind, flows, rate_bps, duration")

    def test_topology_may_be_given_by_catalogue_name(self):
        by_name = ScenarioSpec(topology="line")
        assert by_name == ScenarioSpec(topology=TopologySpec("line"))
        assert ScenarioSpec.from_dict({"topology": "line"}) == by_name
        assert by_name.to_dict()["topology"] == {"name": "line",
                                                 "options": {}}

    def test_validation_rejects_unknown_enums(self):
        with pytest.raises(ValueError):
            AdversarySpec(behavior="nuke")
        with pytest.raises(ValueError):
            PlacementSpec(strategy="random")
        with pytest.raises(ValueError):
            TrafficSpec(kind="udp")
        with pytest.raises(ValueError, match="abilene"):
            TopologySpec(name="nonesuch").build()

    def test_options_are_canonical(self):
        a = TopologySpec("grid", options={"rows": 2, "cols": 4})
        b = TopologySpec("grid", options={"cols": 4, "rows": 2})
        assert a == b and canonical(a) == canonical(b)
        with pytest.raises(ValueError, match="duplicate"):
            TopologySpec("grid", options=[("n", 1), ("n", 2)])

    def test_catalogue_lists_registered_topologies(self):
        names = topology_names()
        for expected in ("abilene", "sprintlink_like", "ebone_like",
                         "line", "ring", "grid", "simple"):
            assert expected in names


_NESTED = ("topology", "adversary", "placement", "traffic")
_generated = settings(derandomize=True, deadline=None, max_examples=50)


class TestGeneratedSpecs:
    """Properties of the fields-derived ``to_dict``/``from_dict`` pair."""

    @_generated
    @given(scenario_specs())
    def test_from_dict_inverts_to_dict(self, spec):
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @_generated
    @given(scenario_specs())
    def test_canonical_dump_survives_json(self, spec):
        once = canonical(spec)
        assert canonical(ScenarioSpec.from_dict(json.loads(once))) == once

    @_generated
    @given(scenario_specs(), st.sampled_from((None,) + _NESTED))
    def test_unknown_key_at_any_level_is_named(self, spec, level):
        data = spec.to_dict()
        (data if level is None else data[level])["bogus_key"] = 1
        with pytest.raises(ValueError, match="bogus_key"):
            ScenarioSpec.from_dict(data)

    @_generated
    @given(scenario_specs(), st.data())
    def test_deleted_keys_fall_back_to_dataclass_defaults(self, spec, data):
        # Fails if from_dict (or anything else) restates a default.
        def drop(spec_dict, value):
            gone = data.draw(st.sets(st.sampled_from(sorted(spec_dict))))
            for key in gone:
                del spec_dict[key]
            defaults = {f.name: f.default
                        for f in dataclasses.fields(value)}
            return dataclasses.replace(
                value, **{key: defaults[key] for key in gone})

        dumped = spec.to_dict()
        try:
            expected = dataclasses.replace(spec, **{
                name: drop(dumped[name], getattr(spec, name))
                for name in _NESTED})
            expected = drop(dumped, expected)
        except ValueError as error:
            # A defaulted field no longer fits the others (a detector and
            # topology that do not pair, a Fatih run that now ends before
            # its traffic): from_dict rejects the same spec the same way.
            with pytest.raises(ValueError, match=re.escape(str(error))):
                ScenarioSpec.from_dict(dumped)
            return
        assert ScenarioSpec.from_dict(dumped) == expected


#: The router each centrality strategy resolves to at seed 0, per catalogue
#: topology, over (all routers, the attack matrix's transit candidates):
#: (max-betweenness x 2, articulation-point x 2), captured when placement
#: still ran on networkx.
PICKS_AT_PARENT = [
    ("abilene", (), ("KansasCity",) * 4),
    ("ebone_like", (), ("ebone-0", "ebone-0", "ebone-21", "ebone-21")),
    ("grid", (), ("r2x2",) * 4),
    ("grid", (("cols", 4), ("rows", 2)), ("r1x2",) * 4),
    ("line", (), ("r3",) * 4),
    ("ring", (), ("r1",) * 4),
    ("simple", (), ("r",) * 4),
    ("sprintlink_like", (), ("sprintlink-1",) * 4),
]


class TestPlacement:
    def test_fixed_requires_member_router(self):
        spec = PlacementSpec("fixed", router="r2")
        assert spec.resolve(chain(4), 0, ["r2", "r3"]) == "r2"
        with pytest.raises(ValueError, match="r9"):
            PlacementSpec("fixed", router="r9").resolve(
                chain(4), 0, ["r2", "r3"])

    def test_seeded_random_is_seed_deterministic(self):
        spec = PlacementSpec("seeded-random")
        pool = [f"r{i}" for i in range(2, 7)]
        picks = {spec.resolve(chain(8), seed, pool) for seed in range(20)}
        assert spec.resolve(chain(8), 3, pool) \
            == spec.resolve(chain(8), 3, list(reversed(pool)))
        assert len(picks) > 1  # the seed actually matters

    def test_max_betweenness_picks_chain_middle(self):
        topo = chain(5)
        spec = PlacementSpec("max-betweenness")
        assert spec.resolve(topo, 0, ["r2", "r3", "r4"]) == "r3"

    def test_articulation_point_on_chain(self):
        # Every interior chain router is an articulation point; the
        # betweenness tie-break picks the middle one.
        spec = PlacementSpec("articulation-point")
        assert spec.resolve(chain(5), 0, ["r2", "r3", "r4"]) == "r3"

    def test_articulation_point_falls_back_on_ring(self):
        # A cycle has no articulation points: fall back to betweenness
        # over the full pool instead of failing.
        spec = PlacementSpec("articulation-point")
        assert spec.resolve(ring(6), 0, ["r2", "r3", "r4"]) == "r2"

    @pytest.mark.parametrize("name, options, picks", PICKS_AT_PARENT)
    def test_centrality_picks_are_pinned(self, name, options, picks):
        topo = TopologySpec(name, options).build()
        pools = (topo.routers, list(transit_candidates(topo)))
        assert tuple(PlacementSpec(strategy).resolve(topo, 0, pool)
                     for strategy in ("max-betweenness", "articulation-point")
                     for pool in pools) == picks

    def test_pinned_picks_cover_the_catalogue(self):
        assert {name for name, _, _ in PICKS_AT_PARENT} \
            == set(topology_names())

    def test_exact_ties_break_by_float_noise(self):
        # grid 3x3 scores r2x1 0.17857142857142852 and r3x2 ...55: the
        # betweenness sums' rounding, not the name, decides between them.
        spec = PlacementSpec("max-betweenness")
        assert spec.resolve(TopologySpec("grid").build(), 0,
                            ["r2x1", "r3x2"]) == "r3x2"

    def test_strategies_constant_matches_spec(self):
        assert set(PLACEMENT_STRATEGIES) == {
            "fixed", "seeded-random", "max-betweenness",
            "articulation-point"}
        assert BEHAVIORS[0] == "none"


#: Registered names and their parameter names, in listing order, captured
#: at the last commit that had one function per figure.
REGISTRY_AT_PARENT = [
    ("fig5_2", ("topology", "ks")),
    ("fig5_4", ("topology", "ks")),
    ("overhead", ("topology", "ks")),
    ("fig5_7", ("attack_time", "attack_fraction", "end_time",
                "monitor_start")),
    ("fig6_3", ("rates", "seed")),
    ("fig6_5", ("seed", "tau", "n_sources")),
    ("fig6_6", ("seed", "fraction", "tau", "n_sources")),
    ("chi", ("seed", "fraction", "tau", "n_sources")),
    ("pi2_bench", ("seed", "bad_router", "fraction", "rate_bps")),
    ("pik2_bench", ("seed", "bad_router", "fraction", "rate_bps")),
    ("tcp_heavy", ("seed", "n_sources", "tau")),
    ("adversary_heavy", ("seed", "n_sources", "avg_threshold")),
    ("fig6_7", ("seed", "fill_threshold", "tau", "n_sources")),
    ("fig6_8", ("seed", "fill_threshold", "tau", "n_sources")),
    ("fig6_9", ("seed", "tau", "n_sources")),
    ("fig6_11", ("seed", "tau", "n_sources")),
    ("fig6_12", ("seed", "avg_threshold", "n_sources")),
    ("fig6_13", ("seed", "avg_threshold", "n_sources")),
    ("fig6_14", ("seed", "fraction", "avg_threshold")),
    ("fig6_15", ("seed", "fraction", "avg_threshold")),
    ("fig6_16", ("seed",)),
    ("threshold", ("thresholds", "seed")),
    ("response", ("topology_name", "suspicions")),
    ("baselines", ()),
    ("modeling", ("seed",)),
    ("attack_matrix", ("topology", "adversary", "placement", "traffic",
                       "detector", "tau", "rounds", "seed")),
]


def row_id(row):
    return row.name


class TestTestbedRows:
    """Figs 6.5-6.16 and the χ benches as ``ScenarioSpec`` rows."""

    ATTACKS = {"drop": DropFlowAttack,
               "queue-drop": QueueConditionalDropAttack,
               "red-avg-drop": REDAverageConditionalDropAttack,
               "syn-drop": SynDropAttack}

    @pytest.mark.parametrize("row", ex.TESTBED_ROWS, ids=row_id)
    def test_row_spec_roundtrips_byte_stable(self, row):
        once = canonical(row.spec)
        rebuilt = ScenarioSpec.from_dict(json.loads(once))
        assert canonical(rebuilt) == once
        assert rebuilt == row.spec

    @pytest.mark.parametrize("row", ex.TESTBED_ROWS, ids=row_id)
    def test_row_builds_the_described_compromise(self, row):
        scenario = build_scenario(row.spec)
        assert isinstance(scenario, BottleneckScenario)
        assert (scenario.red_params is None) == (
            row.spec.option("queue") == "droptail")
        compromise = scenario.network.routers["r"].compromise
        assert compromise is scenario.attack
        adversary = row.spec.adversary
        if adversary.behavior == "none":
            assert compromise is None
            return
        assert compromise.active_from == 50.0
        described = [adversary]
        parts = [compromise]
        if adversary.option("also") is not None:
            described.append(AdversarySpec.from_dict(adversary.option("also")))
            parts = compromise.parts
        assert len(parts) == len(described)
        for part, spec in zip(parts, described):
            assert type(part) is self.ATTACKS[spec.behavior]
            assert part.fraction == spec.rate
            assert part.active_from == 50.0
            if spec.behavior == "syn-drop":
                assert part.victim_dst == spec.option("victim") == "vsink"
                assert scenario.connector is not None
            else:
                assert part.flows == set(spec.option("flows"))
            for threshold in ("fill_threshold", "avg_threshold"):
                if spec.option(threshold) is not None:
                    assert getattr(part, threshold) == spec.option(threshold)

    def test_registered_names_and_params_match_the_parent_commit(self):
        assert [(name, spec.param_names) for name, spec
                in registry.registry().items()] == REGISTRY_AT_PARENT
        assert {row.name for row in ex.TESTBED_ROWS} <= set(registry.names())

    def test_flat_params_map_onto_the_row_spec(self, monkeypatch):
        assert get_experiment("fig6_13").param_spec("n_sources").default == 12
        assert get_experiment("fig6_14").param_spec("fraction").default == 0.1
        built = []
        monkeypatch.setattr(
            ex, "run_testbed", lambda label, spec: built.append((label, spec)))
        get_experiment("adversary_heavy").run(
            seed=4, n_sources=5, avg_threshold=50_000)
        (label, spec), = built
        assert label == "adversary-heavy"
        # Every exposed parameter, n_sources included, reaches the spec.
        assert (spec.seed, spec.traffic.flows) == (4, 5)
        assert spec.adversary.option("avg_threshold") == 50_000.0
        assert spec.adversary.option("also")["behavior"] == "syn-drop"

    def test_unexposed_flat_param_rejected_at_parse_time(self):
        with pytest.raises(ParamError, match="does not accept"):
            get_experiment("fig6_5").coerce_params({"fraction": 0.3})

    def test_attack_seed_offset_rides_in_options(self):
        spec = AdversarySpec("drop", 0.5, options={"seed_offset": 7})
        a = spec.build(None, "r", ["f"], 3)
        b = DropFlowAttack(["f"], fraction=0.5, seed=10)
        assert [a.rng.random() for _ in range(4)] == [
            b.rng.random() for _ in range(4)]


class TestDottedParams:
    def test_fold_basic(self):
        assert fold_dotted_params(
            {"topology": "line", "adversary.behavior": "drop",
             "adversary.rate": 0.5}) == {
            "topology": "line",
            "adversary": {"behavior": "drop", "rate": 0.5}}

    def test_fold_merges_mapping_and_dotted(self):
        folded = fold_dotted_params(
            {"adversary": {"behavior": "drop"}, "adversary.rate": 0.1})
        assert folded == {"adversary": {"behavior": "drop", "rate": 0.1}}

    def test_fold_is_idempotent(self):
        folded = fold_dotted_params({"a.b": 1, "c": 2})
        assert fold_dotted_params(folded) == folded

    def test_fold_conflicts_raise(self):
        with pytest.raises(ValueError, match="scalar"):
            fold_dotted_params({"adversary": 3, "adversary.rate": 0.1})
        with pytest.raises(ValueError, match="bad dotted"):
            fold_dotted_params({"adversary.": 1})

    def test_dotted_param_spec_resolution_and_coercion(self):
        spec = get_experiment("attack_matrix")
        rate = spec.param_spec("adversary.rate")
        assert rate.coerce("0.25") == 0.25  # typed coercion from CLI text
        with pytest.raises(ParamError, match="adversary.behavior"):
            spec.param_spec("adversary.behavior").coerce("nuke")

    def test_unknown_dotted_path_names_accepted_keys(self):
        spec = get_experiment("attack_matrix")
        with pytest.raises(ParamError,
                           match="placement.strategy, placement.router"):
            spec.param_spec("placement.strateggy")
        with pytest.raises(ParamError, match="does not accept"):
            spec.param_spec("nonsense.key")

    def test_run_accepts_flat_dotted_params(self):
        # The worker boundary: flat dotted payload params must fold
        # before hitting the experiment function.
        spec = get_experiment("attack_matrix")
        result = spec.run(**{"topology": "line",
                             "adversary.behavior": "none", "rounds": 2})
        assert result.behavior == "none" and not result.detected


class TestAttackScenarioBuild:
    def test_build_scenario_places_adversary_on_a_flow_path(self):
        scenario = build_scenario(ScenarioSpec(
            topology={"name": "line"},
            adversary={"behavior": "drop"},
            placement={"strategy": "max-betweenness"}))
        bad = scenario.adversary_router
        assert any(bad in path[1:-1]
                   for path in scenario.flow_paths.values())
        assert scenario.attack is not None

    def test_simple_topology_routes_to_testbed_builders(self):
        from repro.eval import droptail_spec, red_spec
        from repro.eval import BottleneckScenario
        from repro.net import DropTailQueue, REDQueue
        droptail = build_scenario(droptail_spec())
        red = build_scenario(red_spec())
        assert isinstance(droptail, BottleneckScenario)
        assert isinstance(red, BottleneckScenario)
        assert type(droptail.bottleneck_queue) is DropTailQueue
        assert droptail.red_params is None
        assert type(red.bottleneck_queue) is REDQueue
        assert red.red_params is red.bottleneck_queue.params

    def test_abilene_matches_paper_scale(self):
        assert len(abilene().routers) == 11


class TestDetectorAxis:
    """``ScenarioSpec.detector`` arms Π2 or Πk+2 on an attack-matrix cell."""

    def test_unknown_detector_names_the_choices(self):
        with pytest.raises(ValueError,
                           match="'pi3'; one of pi2, pik2, chi, fatih"):
            ScenarioSpec(detector="pi3")
        assert DETECTORS == ("pi2", "pik2", "chi", "fatih")
        assert ScenarioSpec().detector == "pi2"

    def test_detector_must_watch_its_topology(self):
        with pytest.raises(ValueError, match=(
                "detector 'chi' cannot watch topology 'abilene': chi runs "
                "on 'simple' only, pi2, pik2 and fatih on a routed")):
            ScenarioSpec.from_dict({"detector": "chi"})
        for detector in ("pi2", "pik2", "fatih"):
            with pytest.raises(ValueError, match="topology 'simple'"):
                ScenarioSpec(topology="simple", detector=detector)
        chi = ScenarioSpec.from_dict({"detector": "chi",
                                      "topology": "simple"})
        assert ScenarioSpec.from_dict(chi.to_dict()) == chi

    def test_endpoints_must_match_the_flow_count(self):
        with pytest.raises(ValueError, match="1 endpoints for 2 traffic"):
            ScenarioSpec(options={"endpoints": [["r1", "r6"]]})

    def test_detector_is_a_registry_param(self):
        # attack_matrix scores Π suspicions, so it offers the Π detectors.
        param = get_experiment("attack_matrix").param_spec("detector")
        assert (param.default, param.choices) == ("pi2", ("pi2", "pik2"))
        with pytest.raises(ParamError, match="'pi2', 'pik2'"):
            param.coerce("chi")

    def test_sweep_rejects_a_non_pi_detector_in_one_line(self, capsys):
        assert main(["sweep", "attack_matrix", "--param", "detector=chi",
                     "--no-cache", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("detector", ["pi2", "pik2"])
    def test_scenario_arms_the_named_protocol(self, detector):
        scenario = build_scenario(ScenarioSpec(
            topology="line", detector=detector, rounds=1))
        assert type(scenario.protocol) is {
            "pi2": ProtocolPi2, "pik2": ProtocolPiK2}[detector]

    def test_detector_picks_the_builder(self):
        fatih = build_scenario(ScenarioSpec(topology="line", detector="fatih",
                                            options={"end": 60.0}))
        assert type(fatih.protocol) is FatihSystem
        chi = build_scenario(ScenarioSpec(topology="simple",
                                          detector="chi"))
        assert isinstance(chi, BottleneckScenario)

    def test_fatih_run_ends_after_its_traffic_starts(self):
        # By default a run ends after its rounds plus 3τ (7 s here), long
        # before link-state routing converges and the flows start.
        with pytest.raises(ValueError, match="carries no traffic"):
            ScenarioSpec(topology="line", detector="fatih")
        scenario = build_scenario(ScenarioSpec(
            topology="line", detector="fatih", adversary={"behavior": "none"},
            options={"end": FATIH_TRAFFIC_AT + 3.0})).run()
        assert [flow.received > 0 for flow in scenario.flows.values()] == [
            True, True]

    def test_fatih_attacks_once_its_traffic_flows(self):
        # Fatih's flows start once link-state routing has converged; an
        # attack dated before then would have nothing to drop.
        spec = ScenarioSpec(topology="line", detector="fatih",
                            options={"end": 61.0})
        assert spec.attack_at == FATIH_TRAFFIC_AT
        assert resolve_ground_truth(spec)["attack_at"] == FATIH_TRAFFIC_AT
        with pytest.raises(ValueError, match="before a fatih run's traffic"):
            ScenarioSpec(topology="line", detector="fatih",
                         options={"attack_at": 5.0, "end": 61.0})
        # A control cell has no attack to date.
        ScenarioSpec(topology="line", detector="fatih",
                     adversary={"behavior": "none"},
                     options={"attack_at": 5.0, "end": 61.0})

    def test_chi_attacks_after_learning(self):
        # A hand-written chi spec attacks when the testbed rows do, after
        # droptail chi's attack-free learning period (20 s).
        spec = ScenarioSpec(topology="simple", detector="chi")
        assert spec.attack_at == droptail_spec().attack_at == 50.0
        assert build_scenario(spec).attack.active_from == 50.0
        with pytest.raises(ValueError, match="learning period"):
            ScenarioSpec(topology="simple", detector="chi",
                         options={"attack_at": 5.0})
        # RED chi learns nothing; a control cell has no attack to place.
        ScenarioSpec(topology="simple", detector="chi",
                     options={"attack_at": 5.0, "queue": "red"})
        ScenarioSpec(topology="simple", detector="chi",
                     adversary={"behavior": "none"},
                     options={"attack_at": 5.0})

    def test_chain_benches_plant_on_an_interior_router(self, capsys):
        # Placement is on transit routers, so the chain's endpoints are
        # refused before anything runs.
        assert main(["sweep", "pi2_bench", "--param", "bad_router=r1",
                     "--no-cache", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "must be one of 'r2', 'r3', 'r4', 'r5'; got 'r1'" in err

    @pytest.mark.parametrize("detector", ["pi2", "fatih"])
    def test_one_activation_time(self, detector):
        # attack_at is neither tau nor the detector's default: the
        # adversary, the scenario, forensics' resolution and the traced
        # ground truth all say the same time (a Fatih attack comes after
        # its traffic starts).
        at = {"pi2": 2.5, "fatih": FATIH_TRAFFIC_AT + 0.5}[detector]
        spec = ScenarioSpec(topology="line", detector=detector,
                            placement={"strategy": "max-betweenness"},
                            tau=1.0, options={"attack_at": at, "end": 60.0})
        scenario = build_scenario(spec)
        sink = MemorySink()
        rec = recorder()
        rec.enable(sink)
        try:
            scenario.record_ground_truth()
        finally:
            rec.disable()
        traced, = [record for record in sink.records
                   if record["event"] == "scenario.ground_truth"]
        assert scenario.attack.active_from == at
        assert (scenario.attack_at == resolve_ground_truth(spec)["attack_at"]
                == traced["attack_at"] == at)
        assert (traced["router"] == resolve_ground_truth(spec)["router"]
                == scenario.adversary_router)

    def test_pik2_drop_cell_detected_with_precision_three(self):
        cell = dict(topology="line", detector="pik2",
                    placement={"strategy": "max-betweenness"})
        result = ex.attack_matrix(adversary={"behavior": "drop"}, **cell)
        assert result.detected
        assert (result.precision, result.recall) == (1.0, 1.0)
        assert result.segment_precision == 3
        control = ex.attack_matrix(adversary={"behavior": "none"}, **cell)
        assert control.total_suspicions == 0
        assert not control.detected


class TestAttackMatrixSweepE2E:
    GRID = ["--grid", "adversary.behavior=drop,none",
            "--param", "topology=line",
            "--param", "placement.strategy=max-betweenness"]

    #: Golden sha256 of aggregate.csv for the grid above at root seed 0.
    #: A change means spec construction or detection scoring drifted for
    #: a fixed seed — a bug, not a baseline refresh.
    GOLDEN_AGGREGATE = ("8e91d58e13e662db45d20df4431eec0a"
                        "a157271440d6e07c25c1b2b911e58314")

    def _sweep(self, out) -> str:
        assert main(["sweep", "attack_matrix", "--seeds", "1", "--jobs",
                     "1", "--no-cache", "--quiet", "--out", str(out)]
                    + self.GRID) == 0
        with open(out / "aggregate.csv", "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def test_aggregate_bit_identical_across_runs(self, tmp_path):
        first = self._sweep(tmp_path / "a")
        second = self._sweep(tmp_path / "b")
        assert first == second == self.GOLDEN_AGGREGATE
        manifest = json.loads((tmp_path / "a" / "sweep.json").read_text())
        assert manifest["schema"] == "repro.sweep/v4"
        assert len(manifest["runs"]) == 2
        header = (tmp_path / "a" / "aggregate.csv").read_text().splitlines()
        fields = {line.split(",")[0] for line in header[1:]}
        assert {"precision", "recall", "detected"} <= fields


#: Calls that build a network or arm a detector; only the builder makes
#: them (and the replica demo, which arms no detector).
_SET_UP_CALLS = ("Network", "arm_protocol", "FatihSystem", "ProtocolChi",
                 "LinkStateRouting")
_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SET_UP_ALLOWED = {os.path.join("src", "repro", "eval", "scenarios.py"),
                   os.path.join("examples", "active_replication.py")}


def set_up_calls(path):
    """(line, name) of every ``_SET_UP_CALLS`` call in a Python file."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name in _SET_UP_CALLS:
                found.append((node.lineno, name))
    return sorted(found)


class TestOneScenarioBuilder:
    """Experiments, benches and examples get their set-up from
    ``build_scenario``; none builds a network or arms a detector."""

    def test_only_the_builder_sets_up_a_scenario(self):
        from repro.analysis.engine import discover_files

        roots = [os.path.join(_REPO, "src", "repro", "eval"),
                 os.path.join(_REPO, "benchmarks"),
                 os.path.join(_REPO, "examples")]
        ledger = os.path.join(_REPO, "benchmarks", "ledger") + os.sep
        offenders = {}
        for path in discover_files(roots):
            relative = os.path.relpath(path, _REPO)
            if relative in _SET_UP_ALLOWED or path.startswith(ledger):
                continue
            if (found := set_up_calls(path)):
                offenders[relative] = found
        assert offenders == {}

    def test_scan_finds_plain_and_qualified_calls(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "from repro import core, net\n"
            "net_ = net.Network(topo)\n"
            "arm_protocol(net_, paths)\n"
            "FatihSystem\n"
            "core.ProtocolChi(net_, oracle, schedule)\n"
            "LinkStateRouting(net_).start()\n")
        assert set_up_calls(str(bad)) == [
            (2, "Network"), (3, "arm_protocol"), (5, "ProtocolChi"),
            (6, "LinkStateRouting")]
