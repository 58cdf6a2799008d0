"""Typed ParamSpec tables: derivation, coercion, actionable errors."""

import pytest

from repro.eval import registry
from repro.eval.registry import (
    ExperimentSpec,
    ParamError,
    ParamSpec,
    params_from_signature,
)


def typed_experiment(count: int = 4, rate: float = 0.5,
                     enabled: bool = True, label: str = "x",
                     seed: int = 0):
    return {"count": count, "rate": rate, "enabled": enabled,
            "label": label, "seed": seed}


def untyped_experiment(values=None, mode="fast"):
    return {"values": values, "mode": mode}


def report(result):
    return [str(result)]


class TestParamSpecCoerce:
    def test_int_from_string(self):
        assert ParamSpec("n", int).coerce("7") == 7

    def test_float_from_string_and_int(self):
        spec = ParamSpec("r", float)
        assert spec.coerce("0.25") == 0.25
        assert spec.coerce(2) == 2.0

    def test_bool_text_forms(self):
        spec = ParamSpec("b", bool)
        for text in ("true", "True", "1", "yes"):
            assert spec.coerce(text) is True
        for text in ("false", "False", "0", "no"):
            assert spec.coerce(text) is False
        with pytest.raises(ParamError, match="use true/false"):
            spec.coerce("maybe")

    def test_bool_rejected_for_numeric(self):
        with pytest.raises(ParamError, match="expects int, got bool"):
            ParamSpec("n", int).coerce(True)
        with pytest.raises(ParamError, match="expects float, got bool"):
            ParamSpec("r", float).coerce(False)

    def test_unconvertible_value_names_type(self):
        with pytest.raises(ParamError, match="expects int, got 'soon'"):
            ParamSpec("n", int).coerce("soon")

    def test_choices_enforced_after_coercion(self):
        spec = ParamSpec("k", int, choices=(1, 2, 3))
        assert spec.coerce("2") == 2
        with pytest.raises(ParamError, match="must be one of 1, 2, 3"):
            spec.coerce("9")

    def test_untyped_passes_through(self):
        spec = ParamSpec("anything")
        value = [1, {"a": 2}]
        assert spec.coerce(value) is value

    def test_none_passes_through(self):
        assert ParamSpec("n", int, default=None).coerce(None) is None

    def test_error_names_experiment(self):
        with pytest.raises(ParamError, match="experiment 'demo'"):
            ParamSpec("n", int).coerce("x", experiment="demo")

    def test_describe(self):
        assert ParamSpec("n", int, default=4).describe() == "n: int = 4"
        assert "in {" in ParamSpec("m", str, default="a",
                                   choices=("a", "b")).describe()


class TestSignatureDerivation:
    def test_scalar_annotations_become_typed(self):
        table = {p.name: p for p in params_from_signature(typed_experiment)}
        assert table["count"].type is int
        assert table["rate"].type is float
        assert table["enabled"].type is bool
        assert table["label"].type is str
        assert table["count"].default == 4
        assert not table["count"].required

    def test_untyped_params_infer_from_scalar_default(self):
        table = {p.name: p
                 for p in params_from_signature(untyped_experiment)}
        assert table["values"].type is None  # default None: no inference
        assert table["mode"].type is str  # inferred from "fast"

    def test_required_param_has_no_default(self):
        def fn(needed: int, optional: int = 1):
            return needed + optional

        table = {p.name: p for p in params_from_signature(fn)}
        assert table["needed"].required
        assert not table["optional"].required


class TestExperimentSpecTable:
    def test_spec_derives_table_from_fn(self):
        spec = ExperimentSpec("t", typed_experiment, report)
        assert spec.param_names == ("count", "rate", "enabled", "label",
                                    "seed")
        assert spec.accepts_seed

    def test_seedless_spec(self):
        spec = ExperimentSpec("t", untyped_experiment, report)
        assert not spec.accepts_seed

    def test_explicit_override_merges_by_name(self):
        spec = ExperimentSpec(
            "t", typed_experiment, report,
            params=(ParamSpec("label", str, default="x",
                              choices=("x", "y")),))
        assert spec.param_spec("label").choices == ("x", "y")
        # The rest of the table is still derived from the signature.
        assert spec.param_spec("count").type is int

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            ExperimentSpec("t", typed_experiment, report,
                           params=(ParamSpec("bogus", int),))

    def test_unknown_default_rejected(self):
        # A default the table cannot show would make `repro list`
        # disagree with what a bare run does.
        with pytest.raises(ValueError, match="typo"):
            ExperimentSpec("t", typed_experiment, report,
                           defaults=(("typo", 3),))

    def test_declared_params_accepted_when_fn_takes_kwargs(self):
        def open_ended(seed: int = 0, **flat):
            return dict(flat, seed=seed)

        spec = ExperimentSpec("t", open_ended, report,
                              params=(ParamSpec("depth", int, 2),))
        assert spec.param_names == ("seed", "depth")
        assert spec.run(depth="5") == {"depth": 5, "seed": 0}
        with pytest.raises(ParamError, match="does not accept"):
            spec.coerce_params({"width": 1})

    def test_defaults_fold_into_the_table(self):
        spec = ExperimentSpec("t", typed_experiment, report,
                              defaults=(("label", "registered"),))
        assert spec.param_spec("label").default == "registered"
        assert "label: str = 'registered'" in spec.param_spec(
            "label").describe()
        assert spec.param_spec("count").default == \
            params_from_signature(typed_experiment)[0].default

    def test_param_spec_lists_accepted_names(self):
        spec = ExperimentSpec("t", untyped_experiment, report)
        with pytest.raises(ParamError, match="accepted: values, mode"):
            spec.param_spec("nope")

    def test_coerce_params_converts_each_value(self):
        spec = ExperimentSpec("t", typed_experiment, report)
        out = spec.coerce_params({"count": "3", "enabled": "false"})
        assert out == {"count": 3, "enabled": False}

    def test_run_coerces_before_calling(self):
        spec = ExperimentSpec("t", typed_experiment, report)
        result = spec.run(count="6", rate="0.5", seed=1)
        assert result["count"] == 6 and result["rate"] == 0.5

    def test_run_rejects_bad_value_before_calling(self):
        spec = ExperimentSpec("t", typed_experiment, report)
        with pytest.raises(ParamError, match="'count'"):
            spec.run(count="lots")


class TestRegisteredSpecs:
    def test_all_registered_specs_have_tables(self):
        seen_any = False
        for name, spec in registry.registry().items():
            # Zero-arg experiments (e.g. baselines) have empty tables.
            for param in spec.params:
                seen_any = True
                assert param.describe()
                assert spec.param_spec(param.name) is param
        assert seen_any

    def test_listed_defaults_are_the_effective_ones(self):
        # fig5_2 registers topology='ebone' over a 'sprintlink' signature.
        assert registry.get("fig5_2").param_spec("topology").default == \
            "ebone"
        assert registry.get("fig6_13").param_spec("n_sources").default == 12

    def test_sweep_rejects_unexposed_param_before_workers(self, tmp_path):
        from repro.sweep.runner import SweepConfig, run_sweep

        with pytest.raises(ParamError, match="does not accept"):
            run_sweep("fig6_5", SweepConfig(
                params={"fraction": 0.3}, cache_dir=str(tmp_path)))

    def test_sweep_rejects_bad_value_before_workers(self, tmp_path):
        from repro.sweep.runner import SweepConfig, run_sweep

        with pytest.raises(ParamError, match="'fraction'"):
            run_sweep("fig6_6", SweepConfig(
                params={"fraction": "a-fifth"}, cache_dir=str(tmp_path)))
