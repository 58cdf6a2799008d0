"""Run-grid expansion and deterministic per-run seed derivation.

A sweep is the cartesian product of a parameter grid times ``n_seeds``
Monte-Carlo replicates.  Every run gets a :class:`RunSpec` whose seed is
derived as ``sha256(root_seed | run_key)`` — so the same root seed always
expands to the same per-run seeds, regardless of worker count or
completion order, and adding a grid axis never perturbs the seeds of
existing points.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

Params = Tuple[Tuple[str, object], ...]


def canonical_params(params: Mapping[str, object]) -> Params:
    """Sort parameters into a hashable, order-independent form."""
    return tuple(sorted(params.items()))


def derive_seed(root_seed: int, run_key: str) -> int:
    """Deterministically derive a per-run seed from the sweep's root seed."""
    digest = hashlib.sha256(f"{root_seed}|{run_key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2 ** 31)


@dataclass(frozen=True)
class RunSpec:
    """One cell of a sweep: an experiment, a grid point, one derived seed."""

    experiment: str
    params: Params  # grid-point parameters, sorted, never includes "seed"
    seed_index: int
    seed: Optional[int]  # derived seed; None for seedless experiments

    @property
    def run_key(self) -> str:
        """The cell's identity: experiment, canonical JSON of its grid
        point (dict-order free), seed index."""
        params = json.dumps(dict(self.params), sort_keys=True,
                            separators=(",", ":"), default=str)
        return f"{self.experiment}|{params}|seed{self.seed_index}"


def shard_specs(specs: Sequence[RunSpec], index: int,
                count: int) -> List[RunSpec]:
    """Deterministically partition a run list across ``count`` shards.

    Spec *j* of the expanded list belongs to shard ``j % count`` — a
    pure function of the sweep coordinates, so every host that expands
    the same (experiment, params, grid, seeds, root_seed) agrees on the
    partition without coordination, and striding balances slow grid
    points across shards.
    """
    if count < 1:
        raise ValueError("shard count must be >= 1")
    if not 0 <= index < count:
        raise ValueError(f"shard index {index} out of range for "
                         f"{count} shard(s); expected 0..{count - 1}")
    return [spec for j, spec in enumerate(specs) if j % count == index]


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse a ``--shard i/n`` argument into ``(index, count)``."""
    try:
        index, count = (int(part) for part in text.split("/"))
    except ValueError:
        raise ValueError(
            f"bad --shard {text!r}; expected i/n, e.g. 0/4") from None
    if count < 1 or not 0 <= index < count:
        raise ValueError(
            f"bad --shard {text!r}; need 0 <= i < n")
    return index, count


def expand_grid(
    experiment: str,
    base_params: Optional[Mapping[str, object]] = None,
    grid: Optional[Mapping[str, Sequence[object]]] = None,
    n_seeds: int = 1,
    root_seed: int = 0,
    accepts_seed: bool = True,
) -> List[RunSpec]:
    """Expand (grid axes) x (seed replicates) into an ordered run list."""
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    points: List[Dict[str, object]] = [dict(base_params or {})]
    for key, values in sorted((grid or {}).items()):
        if not values:
            raise ValueError(f"grid axis {key!r} has no values")
        points = [dict(point, **{key: value})
                  for point in points for value in values]
    specs: List[RunSpec] = []
    for point in points:
        params = canonical_params(point)
        if accepts_seed:
            for index in range(n_seeds):
                spec = RunSpec(experiment, params, index, None)
                specs.append(RunSpec(experiment, params, index,
                                     derive_seed(root_seed, spec.run_key)))
        else:
            specs.append(RunSpec(experiment, params, 0, None))
    return specs


# ---------------------------------------------------------------------------
# CLI value parsing
# ---------------------------------------------------------------------------

def coerce_value(text: str) -> object:
    """Best-effort literal coercion: int/float/bool/None, else string."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def parse_param_assignments(assignments: Sequence[str]) -> Dict[str, object]:
    """Parse repeated ``--param key=value`` options."""
    params: Dict[str, object] = {}
    for assignment in assignments:
        key, sep, value = assignment.partition("=")
        if not sep or not key:
            raise ValueError(f"bad --param {assignment!r}; expected key=value")
        params[key] = coerce_value(value)
    return params


def parse_grid_assignments(
        assignments: Sequence[str]) -> Dict[str, List[object]]:
    """Parse repeated ``--grid key=v1,v2,...`` options."""
    grid: Dict[str, List[object]] = {}
    for assignment in assignments:
        key, sep, values = assignment.partition("=")
        if not sep or not key or not values:
            raise ValueError(
                f"bad --grid {assignment!r}; expected key=v1,v2,...")
        grid[key] = [coerce_value(v) for v in values.split(",")]
    return grid
