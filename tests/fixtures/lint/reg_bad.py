"""Registry-contract fixture: every REG rule fires in this file."""

from repro.eval.registry import ExperimentSpec, ParamSpec


def experiment(alpha: int = 1, beta: float = 0.5):
    return alpha * beta


SPEC_BAD_DEFAULT = ExperimentSpec(
    "fixture", experiment, print,
    defaults=(("gamma", 3),),  # REG001 (line 12): gamma not in signature
)

SPEC_BAD_PARAM = ExperimentSpec(
    "fixture2", experiment, print,
    params=(ParamSpec("delta"),),  # REG001 (line 17): delta not in signature
)

SPEC_LAMBDA = ExperimentSpec("fixture3", lambda: 0, print)  # REG003 (line 20)


def outer():
    def inner():
        return 0

    return ExperimentSpec("fixture4", inner, print)  # REG003 (line 27)

