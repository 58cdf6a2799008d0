"""Grid expansion, seed derivation, and CLI value parsing."""

import pytest

from repro.sweep.grid import (
    RunSpec,
    canonical_params,
    coerce_value,
    derive_seed,
    expand_grid,
    parse_grid_assignments,
    parse_param_assignments,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "a") == derive_seed(0, "a")

    def test_varies_with_run_key(self):
        assert derive_seed(0, "a") != derive_seed(0, "b")

    def test_varies_with_root_seed(self):
        assert derive_seed(0, "a") != derive_seed(1, "a")

    def test_in_rng_range(self):
        for key in ("x", "y", "z"):
            assert 0 <= derive_seed(123, key) < 2 ** 31


class TestExpandGrid:
    def test_seeds_only(self):
        specs = expand_grid("exp", n_seeds=4, root_seed=7)
        assert len(specs) == 4
        assert [s.seed_index for s in specs] == [0, 1, 2, 3]
        assert len({s.seed for s in specs}) == 4  # all distinct

    def test_same_root_seed_same_seeds(self):
        a = expand_grid("exp", n_seeds=3, root_seed=5)
        b = expand_grid("exp", n_seeds=3, root_seed=5)
        assert [s.seed for s in a] == [s.seed for s in b]

    def test_different_root_seed_different_seeds(self):
        a = expand_grid("exp", n_seeds=3, root_seed=5)
        b = expand_grid("exp", n_seeds=3, root_seed=6)
        assert [s.seed for s in a] != [s.seed for s in b]

    def test_grid_cartesian_product(self):
        specs = expand_grid("exp", grid={"a": [1, 2], "b": ["x", "y", "z"]},
                            n_seeds=2)
        assert len(specs) == 2 * 3 * 2
        points = {s.params for s in specs}
        assert (("a", 1), ("b", "z")) in points

    def test_adding_axis_keeps_existing_seeds(self):
        # A run's seed depends only on its own grid point, never on what
        # else is being swept alongside it.
        alone = expand_grid("exp", base_params={"a": 1}, n_seeds=2,
                            root_seed=3)
        swept = expand_grid("exp", grid={"a": [1, 2]}, n_seeds=2,
                            root_seed=3)
        by_point = {(s.params, s.seed_index): s.seed for s in swept}
        for spec in alone:
            assert by_point[(spec.params, spec.seed_index)] == spec.seed

    def test_param_order_irrelevant(self):
        a = expand_grid("exp", base_params={"x": 1, "y": 2}, n_seeds=1)
        b = expand_grid("exp", base_params={"y": 2, "x": 1}, n_seeds=1)
        assert a[0].seed == b[0].seed

    def test_seedless_experiment_one_run_per_point(self):
        specs = expand_grid("exp", grid={"a": [1, 2]}, n_seeds=5,
                            accepts_seed=False)
        assert len(specs) == 2
        assert all(s.seed is None for s in specs)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            expand_grid("exp", n_seeds=0)
        with pytest.raises(ValueError):
            expand_grid("exp", grid={"a": []})


class TestRunSpec:
    def test_payload_round_trip(self):
        from repro.sweep.cells import _payload

        spec = RunSpec("exp", canonical_params({"a": 1}), 2, 42)
        payload = _payload(spec, None, None)
        assert payload == {"experiment": "exp", "params": [["a", 1]],
                           "seed_index": 2, "seed": 42}
        # The per-run timeout and the trace directory ride along only
        # when set.
        payload = _payload(spec, 1.5, "/t")
        assert (payload["timeout_s"], payload["trace_dir"]) == (1.5, "/t")


class TestParsing:
    def test_coerce(self):
        assert coerce_value("3") == 3
        assert coerce_value("0.5") == 0.5
        assert coerce_value("true") is True
        assert coerce_value("False") is False
        assert coerce_value("none") is None
        assert coerce_value("ebone") == "ebone"

    def test_parse_params(self):
        parsed = parse_param_assignments(["tau=2.5", "topology=ebone"])
        assert parsed == {"tau": 2.5, "topology": "ebone"}

    def test_parse_params_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_param_assignments(["tau"])

    def test_parse_grid(self):
        parsed = parse_grid_assignments(["tau=1,2.5", "topology=ebone,abilene"])
        assert parsed == {"tau": [1, 2.5],
                         "topology": ["ebone", "abilene"]}

    def test_parse_grid_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_grid_assignments(["tau="])
