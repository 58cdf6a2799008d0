"""Parameter-mapping plumbing shared by the registry, the sweep grid and
trace forensics.

Lives outside ``repro.eval`` and ``repro.sweep`` so that neither package
has to import the other to fold a ``--param adversary.rate=0.5``.
"""

from __future__ import annotations

from typing import Dict, Mapping


def fold_dotted_params(params: Mapping[str, object]) -> Dict[str, object]:
    """Fold dotted keys into nested dicts: ``a.b=1`` -> ``{"a": {"b": 1}}``.

    Plain keys pass through (mapping values are copied one level deep so
    callers can mutate the result safely).  A dotted path that collides
    with a scalar plain key, or two paths where one is a prefix of the
    other, is an error — the caller said two contradictory things.
    """
    folded: Dict[str, object] = {}
    for key in sorted(params):
        value = params[key]
        if "." not in key:
            if key in folded and isinstance(folded[key], dict):
                if not isinstance(value, Mapping):
                    raise ValueError(
                        f"parameter {key!r} conflicts with dotted "
                        f"{key}.* parameters")
                folded[key].update(value)  # type: ignore[attr-defined]
            else:
                folded[key] = dict(value) if isinstance(value, Mapping) \
                    else value
            continue
        parts = key.split(".")
        if any(not part for part in parts):
            raise ValueError(f"bad dotted parameter name {key!r}")
        cursor = folded
        for depth, part in enumerate(parts[:-1]):
            node = cursor.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValueError(
                    f"parameter {'.'.join(parts[:depth + 1])!r} is a "
                    f"scalar; cannot also set {key!r}")
            cursor = node
        leaf = parts[-1]
        if isinstance(cursor.get(leaf), dict):
            raise ValueError(
                f"parameter {key!r} is a scalar but {key}.* parameters "
                f"were also given")
        cursor[leaf] = value
    return folded
