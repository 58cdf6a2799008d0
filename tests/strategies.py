"""Hypothesis strategies shared across the test suite.

``scenario_specs()`` generates valid :class:`~repro.eval.ScenarioSpec`
values over the whole spec surface: every detector on a topology it can
watch (χ on the ``simple`` testbed, Π2, Πk+2 and Fatih on every other
catalogue topology), every behavior, placement strategy and traffic
kind, and JSON-scalar ``options`` (a Fatih spec's include an ``end``
after its traffic starts).  Specs are typed and round-trip
through ``to_dict``/``from_dict``, so failing examples shrink to a small
spec that can be pasted into a test.
"""

from hypothesis import strategies as st

from repro.eval import (
    AdversarySpec,
    BEHAVIORS,
    DETECTORS,
    PLACEMENT_STRATEGIES,
    PlacementSpec,
    ScenarioSpec,
    TopologySpec,
    TrafficSpec,
    topology_names,
)
from repro.eval.specs import CHI_BEHAVIORS, FATIH_TRAFFIC_AT, TRAFFIC_KINDS

#: Factory options worth varying, per generated topology family.
_TOPOLOGY_OPTIONS = {
    "line": st.fixed_dictionaries({}, optional={"n": st.integers(3, 8)}),
    "ring": st.fixed_dictionaries({}, optional={"n": st.integers(3, 8)}),
    "grid": st.fixed_dictionaries({}, optional={
        "rows": st.integers(2, 3), "cols": st.integers(2, 3)}),
    "simple": st.fixed_dictionaries({}, optional={
        "bottleneck_bw": st.floats(1e5, 1e7),
        "queue_limit": st.integers(10_000, 120_000)}),
}

_positive = st.floats(min_value=1e-3, max_value=1e9,
                      allow_nan=False, allow_infinity=False)
_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=8))
_options = st.dictionaries(st.text("abcdefgh_", min_size=1, max_size=6),
                           _json_scalars, max_size=3)


@st.composite
def topology_specs(draw, detector: str = "pi2") -> TopologySpec:
    """A topology ``detector`` can watch."""
    name = draw(st.sampled_from(
        ["simple"] if detector == "chi"
        else [n for n in topology_names() if n != "simple"]))
    return TopologySpec(name, draw(_TOPOLOGY_OPTIONS.get(name, st.just({}))))


def adversary_specs() -> st.SearchStrategy:
    return st.builds(
        AdversarySpec,
        behavior=st.sampled_from(BEHAVIORS + CHI_BEHAVIORS),
        rate=st.floats(min_value=0.0, max_value=1.0),
        targeting=st.sampled_from(("flows", "all")),
        options=_options)


def placement_specs() -> st.SearchStrategy:
    return st.builds(PlacementSpec,
                     strategy=st.sampled_from(PLACEMENT_STRATEGIES),
                     router=st.sampled_from(("", "r2", "r3", "KansasCity")))


def traffic_specs() -> st.SearchStrategy:
    return st.builds(TrafficSpec,
                     kind=st.sampled_from(TRAFFIC_KINDS),
                     flows=st.integers(1, 6),
                     rate_bps=_positive, duration=_positive)


def _scenario_options(detector: str) -> st.SearchStrategy:
    """``options`` a ``detector`` spec accepts: a Fatih run also ends
    after its traffic starts."""
    if detector != "fatih":
        return _options
    return st.builds(lambda options, end: dict(options, end=end), _options,
                     st.floats(FATIH_TRAFFIC_AT + 1.0, 1e6))


def scenario_specs(detectors=DETECTORS) -> st.SearchStrategy:
    """Consistent specs arming one of ``detectors``."""
    return st.sampled_from(detectors).flatmap(lambda detector: st.builds(
        ScenarioSpec,
        topology=topology_specs(detector), adversary=adversary_specs(),
        placement=placement_specs(), traffic=traffic_specs(),
        detector=st.just(detector), tau=_positive,
        rounds=st.integers(1, 6), seed=st.integers(0, 2**31),
        options=_scenario_options(detector)))
