"""Picklable experiment registry shared by the CLI, sweeps and benches.

Each paper table/figure is registered once as an :class:`ExperimentSpec`
naming a **top-level** experiment function plus a reporter that formats
its result for the terminal.  Because specs reference module-level
callables only, an experiment can be named by string, shipped to a
worker process, executed there, and its result serialized — which is
what ``python -m repro sweep`` does.

Every spec carries a typed :class:`ParamSpec` table (name, type,
default, choices), derived from the experiment function's signature
unless declared explicitly.  CLI ``--param``/``--grid`` values are
coerced and validated against that table **before** any worker starts,
so a typo'd parameter fails in milliseconds with an actionable message
instead of deep inside a process pool.

The built-in experiments are one ordered table of rows naming their
function as a ``module:function`` target, and a row becomes a spec the
first time :func:`get` asks for it: looking ``pik2_bench`` up imports
its one module, not :mod:`repro.eval.experiments` nor the scenario
specs.  The χ testbed's rows are built together, from
``experiments.TESTBED_ROWS``.  :func:`names`, :func:`registry` and a
failed :func:`get` build every row, in the table's order, followed by
whatever :func:`register` added.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, fields as dataclass_fields, replace
from operator import methodcaller
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Mapping,
                    NamedTuple, Optional, Tuple, Union)

from repro._params import fold_dotted_params

if TYPE_CHECKING:
    from repro.eval.experiments import BaselineDemo


# ---------------------------------------------------------------------------
# Reporters: result object -> printable lines
# ---------------------------------------------------------------------------

def report_scenario(result) -> List[str]:
    return [
        f"detected: {result.detected}",
        f"detection latency (rounds): {result.metrics.detection_latency_rounds}",
        f"false positive rounds: {result.metrics.false_positive_rounds}",
        f"drops: {result.total_drops} total, {result.congestive_drops} "
        f"congestive, {result.malicious_drops_truth} truly malicious",
    ]


def report_pr_curve(curve) -> List[str]:
    lines = [f"topology={curve.topology} protocol={curve.protocol}",
             "k  max  mean  median"]
    lines += [f"{k}  {mx:.0f}  {mean:.1f}  {med:.1f}"
              for k, mx, mean, med in curve.rows()]
    return lines


def report_fatih(r) -> List[str]:
    return [
        f"convergence: {r.convergence_time:.1f} s",
        f"attack at {r.attack_time:.1f} s, detected at "
        f"{r.first_detection:.1f} s, rerouted at {r.reroute_time:.1f} s",
        f"RTT {1000 * r.rtt_before:.1f} -> {1000 * r.rtt_after:.1f} ms",
        "suspected: " + "; ".join(" -> ".join(s)
                                  for s in r.suspected_segments),
    ]


def report_threshold(t) -> List[str]:
    lines = [f"benign max losses {t.benign_max_losses}; "
             f"malicious total {t.total_malicious_drops}"]
    for th in t.thresholds:
        lines.append(
            f"  T={th:3d}: fp={t.static_fp_rounds[th]:3d} "
            f"detected={t.static_detected[th]!s:5s} "
            f"free drops={t.static_free_drops[th]}")
    lines.append(f"  chi: fp={t.chi_fp_rounds} "
                 f"detected={t.chi_detected}")
    return lines


def report_response(res) -> List[str]:
    return [f"{k}: unreachable={v.unreachable_pairs} "
            f"mean stretch={v.mean_stretch:.3f}"
            for k, v in res.items()]


def report_ns_points(points) -> List[str]:
    return [f"rate {p.drop_rate:.2f}: detected={p.detected} "
            f"latency={p.detection_latency_rounds} "
            f"fp={p.false_positive_rounds}"
            for p in points]


def report_protocol_bench(r) -> List[str]:
    return [
        f"{r.protocol} on {r.bad_router}: "
        f"suspicions={r.total_suspicions} accurate={r.accurate} "
        f"complete={r.complete} precision={r.precision}",
        f"simulator events: {r.sim_events}",
    ]


def report_attack_matrix(r) -> List[str]:
    latency = ("n/a" if r.latency is None else f"{r.latency:.2f}s")
    return [
        f"{r.topology}: {r.behavior}@{r.rate:g} on {r.adversary_router} "
        f"({r.placement_strategy})",
        f"detected={r.detected} precision={r.precision:.2f} "
        f"recall={r.recall:.2f} latency={latency}",
        f"suspicions: {r.total_suspicions} total, "
        f"{r.false_suspicions} false; simulator events: {r.sim_events}",
    ]


def report_baselines(demos) -> List[str]:
    return [f"{demo.name}: {demo.values}" for demo in demos]


def report_modeling(m) -> List[str]:
    return [f"predicted loss {m.predicted_loss_prob:.4f} "
            f"observed {m.observed_loss_rate:.4f} "
            f"rel err {m.relative_error:.2f}"]


def baseline_demos() -> List[BaselineDemo]:
    """The Ch. 3 baseline flaw demonstrations, bundled as one experiment."""
    from repro.eval import experiments as ex

    return [ex.watchers_flaw_demo(), ex.perlman_collusion_demo(),
            ex.sectrace_framing_demo(), ex.awerbuch_localization_demo()]


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

class ParamError(ValueError):
    """A CLI/API parameter failed validation against an experiment spec."""


_MISSING = object()  # "no default declared" sentinel (None is a real default)

#: Annotation spellings we coerce; anything else passes through untouched.
_ANNOTATION_TYPES = {
    "int": int, "float": float, "bool": bool, "str": str,
    int: int, float: float, bool: bool, str: str,
}


@dataclass(frozen=True)
class ParamSpec:
    """One declared experiment parameter: name, type, default, choices.

    ``type=None`` means untyped — any value passes through.  ``choices``
    restricts accepted values after coercion.  ``fields`` declares a
    one-level nested parameter (a spec-shaped mapping): the value must
    be a mapping whose keys are validated/coerced against the sub-table,
    and the CLI addresses sub-keys with dotted names
    (``--grid adversary.rate=0.01,0.05``).
    """

    name: str
    type: Optional[type] = None
    default: object = _MISSING
    choices: Optional[Tuple[object, ...]] = None
    fields: Optional[Tuple["ParamSpec", ...]] = None

    @property
    def required(self) -> bool:
        return self.default is _MISSING

    def field_spec(self, sub: str) -> "ParamSpec":
        """The sub-parameter spec for ``<name>.<sub>``, dotted-renamed."""
        dotted = f"{self.name}.{sub}"
        if self.fields is None:
            raise ParamError(
                f"parameter {self.name!r} has no nested fields; "
                f"{dotted!r} is not a valid parameter")
        for field_param in self.fields:
            if field_param.name == sub:
                return replace(field_param, name=dotted)
        raise ParamError(
            f"unknown parameter {dotted!r}; accepted: "
            + ", ".join(f"{self.name}.{f.name}" for f in self.fields))

    def coerce(self, value: object, *, experiment: str = "") -> object:
        """Convert/validate one value, raising an actionable ParamError."""
        where = f"experiment {experiment!r} " if experiment else ""
        if self.fields is not None:
            if value is None:
                return None
            if not isinstance(value, Mapping):
                raise ParamError(
                    f"{where}parameter {self.name!r} expects a mapping "
                    f"(address sub-keys as {self.name}."
                    f"{self.fields[0].name} etc.); got {value!r}")
            return {key: self.field_spec(str(key)).coerce(
                        sub_value, experiment=experiment)
                    for key, sub_value in value.items()}
        coerced = value
        # CLI literal parsing turns the text "none" into Python None; a
        # str parameter whose choices include "none" (e.g. the adversary
        # behavior control cell) means that spelling, not "no value".
        if (value is None and self.type is str and self.choices is not None
                and "none" in self.choices):
            return "none"
        if self.type is not None and value is not None:
            if self.type is bool and not isinstance(value, bool):
                text = str(value).lower()
                if text in ("true", "1", "yes"):
                    coerced = True
                elif text in ("false", "0", "no"):
                    coerced = False
                else:
                    raise ParamError(
                        f"{where}parameter {self.name!r} expects bool, "
                        f"got {value!r} (use true/false)")
            elif isinstance(value, bool) and self.type in (int, float):
                raise ParamError(
                    f"{where}parameter {self.name!r} expects "
                    f"{self.type.__name__}, got bool {value!r}")
            elif not isinstance(value, self.type):
                try:
                    coerced = self.type(value)
                except (TypeError, ValueError):
                    raise ParamError(
                        f"{where}parameter {self.name!r} expects "
                        f"{self.type.__name__}, got {value!r}") from None
        if self.choices is not None and coerced not in self.choices:
            raise ParamError(
                f"{where}parameter {self.name!r} must be one of "
                f"{', '.join(repr(c) for c in self.choices)}; "
                f"got {coerced!r}")
        return coerced

    def describe(self) -> str:
        if self.fields is not None:
            inner = ", ".join(f.describe() for f in self.fields)
            return f"{self.name}.{{{inner}}}"
        bits = [self.name]
        if self.type is not None:
            bits.append(f": {self.type.__name__}")
        if self.default is not _MISSING:
            bits.append(f" = {self.default!r}")
        if self.choices is not None:
            bits.append(" in {" + ", ".join(repr(c) for c in self.choices)
                        + "}")
        return "".join(bits)


def params_from_signature(fn: Callable[..., object]) -> Tuple[ParamSpec, ...]:
    """Derive a ParamSpec table from a function's signature.

    Only simple scalar annotations (int/float/bool/str) become typed;
    sequences, unions and exotica stay untyped so arbitrary Python
    values can still be passed through the API.
    """
    specs = []
    for param in inspect.signature(fn).parameters.values():
        if param.kind not in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY):
            continue
        annotation = param.annotation
        declared = _ANNOTATION_TYPES.get(annotation)
        default = (_MISSING if param.default is inspect.Parameter.empty
                   else param.default)
        if declared is None and default is not _MISSING \
                and isinstance(default, (int, float, bool, str)):
            declared = type(default)
        specs.append(ParamSpec(param.name, declared, default))
    return tuple(specs)


def params_from_fields(cls: type, **choices) -> Tuple[ParamSpec, ...]:
    """One ParamSpec per field of a spec dataclass.

    Name, type and default are read off the field; only ``choices``
    (``field=values``) is the caller's to decide.
    """
    return tuple(ParamSpec(f.name, _ANNOTATION_TYPES.get(f.type), f.default,
                           choices.get(f.name))
                 for f in dataclass_fields(cls))


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable experiment: a picklable function, reporter, params.

    ``params`` is the typed parameter table; leave it empty and it is
    derived from ``fn``'s signature (explicit entries override the
    derived ones by name, so a spec can e.g. add ``choices`` to one
    parameter without restating the rest; an ``fn`` taking ``**kwargs``
    accepts whatever is declared).  ``defaults`` are folded into the
    table, so it always shows the values a bare run uses.
    """

    name: str
    fn: Callable[..., object]
    reporter: Callable[[object], List[str]]
    defaults: Tuple[Tuple[str, object], ...] = ()
    description: str = ""
    params: Tuple[ParamSpec, ...] = ()

    def __post_init__(self) -> None:
        table = {p.name: p for p in params_from_signature(self.fn)}
        unknown = sorted(p.name for p in self.params if p.name not in table)
        if unknown and not any(
                p.kind is p.VAR_KEYWORD
                for p in inspect.signature(self.fn).parameters.values()):
            raise ValueError(
                f"experiment {self.name!r} declares ParamSpec(s) "
                f"{', '.join(unknown)} not in {self.fn.__name__}'s "
                f"signature")
        table.update((p.name, p) for p in self.params)
        unknown = sorted(name for name, _ in self.defaults
                         if name not in table)
        if unknown:
            raise ValueError(
                f"experiment {self.name!r} has default(s) for "
                f"{', '.join(unknown)}, which it has no parameter for")
        for name, value in self.defaults:
            table[name] = replace(table[name], default=value)
        object.__setattr__(self, "params", tuple(table.values()))

    @property
    def param_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.params)

    @property
    def accepts_seed(self) -> bool:
        return "seed" in self.param_names

    def param_spec(self, name: str) -> ParamSpec:
        """Resolve a (possibly dotted, ``root.sub``) parameter name."""
        root, _, rest = name.partition(".")
        for param in self.params:
            if param.name == root:
                if not rest:
                    return param
                try:
                    return param.field_spec(rest)
                except ParamError as error:
                    raise ParamError(
                        f"experiment {self.name!r}: {error}") from None
        raise ParamError(
            f"experiment {self.name!r} does not accept parameter "
            f"{name!r}; accepted: {', '.join(self.param_names) or '(none)'}")

    def coerce_params(self, values: Mapping[str, object]) -> Dict[str, object]:
        """Validate/coerce a parameter mapping against the table."""
        return {name: self.param_spec(name).coerce(value,
                                                   experiment=self.name)
                for name, value in values.items()}

    def run(self, **params):
        merged = dict(self.defaults)
        merged.update(params)
        merged = fold_dotted_params(merged)
        return self.fn(**self.coerce_params(merged))

    def report(self, result) -> List[str]:
        return self.reporter(result)


class _Row(NamedTuple):
    """One built-in experiment, held as names until it is looked up."""

    target: str  # "module:function" of the experiment
    reporter: Callable[[object], List[str]]
    description: str
    defaults: Tuple[Tuple[str, object], ...] = ()
    #: Declared ParamSpecs, or a function returning them when they are
    #: read off a module the row should not import until it is built.
    params: Union[Tuple[ParamSpec, ...],
                  Callable[[], Tuple[ParamSpec, ...]]] = ()


#: The χ testbed rows' place in the table: all of them are built from
#: this ``module:name`` (one TestbedRow each) the first time one is.
_TESTBED = "repro.eval.experiments:TESTBED_ROWS"

#: The chain runs plant their adversary on a transit router: an interior one.
_CHAIN_BAD_ROUTER = ParamSpec("bad_router", str, "r3",
                              choices=("r2", "r3", "r4", "r5"))


def _attack_matrix_params() -> Tuple[ParamSpec, ...]:
    """attack_matrix's nested tables, read off the spec dataclasses."""
    from repro.eval.specs import (AdversarySpec, BEHAVIORS,
                                  PLACEMENT_STRATEGIES, PlacementSpec,
                                  TRAFFIC_KINDS, TrafficSpec, topology_names)

    return (
        ParamSpec("topology", str, "abilene",
                  choices=tuple(n for n in topology_names()
                                if n != "simple")),
        ParamSpec("adversary", None, None, fields=params_from_fields(
            AdversarySpec, behavior=BEHAVIORS,
            targeting=("flows", "all"))),
        ParamSpec("placement", None, None, fields=params_from_fields(
            PlacementSpec, strategy=PLACEMENT_STRATEGIES)),
        ParamSpec("traffic", None, None, fields=params_from_fields(
            TrafficSpec, kind=TRAFFIC_KINDS)),
        ParamSpec("detector", str, "pi2", choices=("pi2", "pik2")),
    )


#: Every built-in experiment, in ``repro list`` order.
_ROWS: Dict[str, Union[_Row, str]] = {
    "fig5_2": _Row("repro.eval.experiments:fig5_2_pr_pi2", report_pr_curve,
                   "Fig 5.2: segments monitored per router, Π2",
                   defaults=(("topology", "ebone"),)),
    "fig5_4": _Row("repro.eval.experiments:fig5_4_pr_pik2", report_pr_curve,
                   "Fig 5.4: segments monitored per router, Πk+2",
                   defaults=(("topology", "ebone"),)),
    "overhead": _Row("repro.eval.experiments:state_overhead",
                     methodcaller("rows"),
                     "§5.1.1/§5.2.1: counter state vs WATCHERS"),
    "fig5_7": _Row("repro.eval.experiments:fig5_7_fatih", report_fatih,
                   "Fig 5.7: Fatih attack/detect/reroute timeline"),
    "fig6_3": _Row("repro.eval.experiments:fig6_3_ns_simulation",
                   report_ns_points,
                   "Fig 6.3: χ detection across attack rates"),
    "fig6_5": _TESTBED,
    "fig6_6": _TESTBED,
    "chi": _TESTBED,
    "pi2_bench": _Row("repro.eval.benches:pi2_bench", report_protocol_bench,
                      "bench: Π2 packet-plane run, 6-router chain",
                      params=(_CHAIN_BAD_ROUTER,)),
    "pik2_bench": _Row("repro.eval.benches:pik2_bench",
                       report_protocol_bench,
                       "bench: Πk+2 packet-plane run, 6-router chain",
                       params=(_CHAIN_BAD_ROUTER,)),
    **dict.fromkeys(("tcp_heavy", "adversary_heavy", "fig6_7", "fig6_8",
                     "fig6_9", "fig6_11", "fig6_12", "fig6_13", "fig6_14",
                     "fig6_15", "fig6_16"), _TESTBED),
    "threshold": _Row("repro.eval.experiments:chi_vs_static_threshold",
                      report_threshold,
                      "§6.4.3: χ vs static loss thresholds"),
    "response": _Row("repro.eval.experiments:response_strategy_ablation",
                     report_response,
                     "§2.4.3: segment vs router removal"),
    "baselines": _Row("repro.eval.registry:baseline_demos", report_baselines,
                      "Ch. 3 baseline flaw demonstrations"),
    "modeling": _Row("repro.eval.experiments:traffic_modeling_comparison",
                     report_modeling,
                     "§6.1.2: Appenzeller model vs simulation"),
    "attack_matrix": _Row(
        "repro.eval.experiments:attack_matrix", report_attack_matrix,
        "WedgeTail-style attack-matrix cell: Π2 detection scored over "
        "topology x placement x behavior x rate",
        params=_attack_matrix_params),
}

#: name -> its spec, or None for a built-in row not built yet.
_REGISTRY: Dict[str, Optional[ExperimentSpec]] = dict.fromkeys(_ROWS)


def _resolve(target: str) -> Any:
    """The object a ``module:name`` target names, importing its module."""
    module, _, name = target.partition(":")
    return getattr(importlib.import_module(module), name)


def _build(name: str) -> ExperimentSpec:
    """Build built-in row ``name`` (its whole group, for a testbed row)."""
    row = _ROWS[name]
    if isinstance(row, str):
        # One spec per χ testbed row: the row's bound ``run`` takes the
        # flat parameters the row exposes and maps them onto its spec.
        for testbed in _resolve(row):
            if testbed.name in _REGISTRY and _REGISTRY[testbed.name] is None:
                _REGISTRY[testbed.name] = ExperimentSpec(
                    testbed.name, testbed.run, report_scenario,
                    description=testbed.description,
                    params=tuple(ParamSpec(*param)
                                 for param in testbed.params))
    else:
        _REGISTRY[name] = ExperimentSpec(
            name, _resolve(row.target), row.reporter, defaults=row.defaults,
            description=row.description,
            params=row.params() if callable(row.params) else row.params)
    spec = _REGISTRY[name]
    if spec is None:
        raise LookupError(f"{row} has no row named {name!r}")
    return spec


def register(spec: ExperimentSpec) -> ExperimentSpec:
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    _REGISTRY.pop(name, None)


def names() -> List[str]:
    return list(registry())


def get(name: str) -> ExperimentSpec:
    spec = _REGISTRY.get(name)
    if spec is not None:
        return spec
    if name in _REGISTRY:
        return _build(name)
    raise KeyError(f"unknown experiment {name!r}; available: "
                   f"{', '.join(names())}")


def registry() -> Dict[str, ExperimentSpec]:
    return {name: get(name) for name in list(_REGISTRY)}


def run_experiment(name: str, params: Mapping[str, object] = {}) -> object:
    """Look an experiment up by name and run it — the worker entry point."""
    return get(name).run(**dict(params))


def _load_plugins() -> None:
    """Import the modules named in ``REPRO_PLUGINS`` so they register.

    ``REPRO_PLUGINS`` is an ``os.pathsep``-separated list of importable
    module names; each module registers its experiments at import time
    (via :func:`register`).  This is how extra experiments reach shard
    child processes, which only see this environment variable — a bad
    entry fails loudly rather than silently dropping experiments.
    """
    import importlib
    import os

    for name in os.environ.get("REPRO_PLUGINS", "").split(os.pathsep):
        name = name.strip()
        if not name:
            continue
        try:
            importlib.import_module(name)
        except Exception as error:
            # Without this, a worker on another host dies with a bare
            # traceback that never says which plugin entry was at fault.
            raise ImportError(
                f"REPRO_PLUGINS: plugin module {name!r} failed to "
                f"import/register ({type(error).__name__}: {error}); "
                f"fix the module or drop it from REPRO_PLUGINS"
            ) from error


_load_plugins()
