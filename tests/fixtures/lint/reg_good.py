"""Registry-contract fixture: clean twin of reg_bad.py — zero findings."""

from repro.eval.registry import ExperimentSpec, ParamSpec


def experiment(alpha: int = 1, beta: float = 0.5):
    return alpha * beta


SPEC_OK = ExperimentSpec(
    "fixture_ok", experiment, print,
    defaults=(("alpha", 3),),
    params=(ParamSpec("beta", float, 0.5),),
)


def flexible(**kwargs):
    return kwargs


SPEC_KWARGS = ExperimentSpec(
    "fixture_kwargs", flexible, print,
    defaults=(("anything", 1),),  # **kwargs accepts it: fine
)

