"""Fixed-seed golden outputs: the hot path may get faster, never different.

The simulator overhaul (slotted packets/events, tuple-keyed heap, cached
fingerprints, cached SPF trees) promises *byte identity*: for a fixed
seed, ``aggregate.csv`` and every per-run trace JSONL must hash exactly
as they did before the rewrite.  The hashes in
``tests/goldens/fixed_seed_hashes.json`` were captured from the
pre-overhaul implementation (``adversary_heavy`` and ``tcp_heavy`` from
the last commit with per-figure droptail/RED runners); any change here
means an optimization or refactor altered simulation behaviour and must
be treated as a bug, not a baseline refresh.
"""

import hashlib
import json
import os

import pytest

from repro.__main__ import main

GOLDENS = os.path.join(os.path.dirname(__file__), "goldens",
                       "fixed_seed_hashes.json")


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _load_goldens():
    with open(GOLDENS) as handle:
        return json.load(handle)


#: Pinned with every trace file; the χ testbed's RED and connector paths
#: (``adversary_heavy``, ``tcp_heavy``) are pinned by aggregate only.
TRACED = ["chi", "pi2_bench", "pik2_bench"]
AGGREGATE_ONLY = ["adversary_heavy", "tcp_heavy"]


@pytest.mark.parametrize("experiment", TRACED + AGGREGATE_ONLY)
def test_fixed_seed_outputs_are_byte_identical(experiment, tmp_path):
    golden = _load_goldens()[experiment]
    out = tmp_path / experiment
    traced = experiment in TRACED
    assert main(["sweep", experiment, "--seeds", "2", "--jobs", "1",
                 "--no-cache", "--out", str(out)]
                + (["--trace"] if traced else [])) == 0

    actual = {"aggregate.csv": _sha256(str(out / "aggregate.csv"))}
    if traced:
        trace_dir = out / "traces"
        for name in sorted(os.listdir(str(trace_dir))):
            actual[name] = _sha256(str(trace_dir / name))

    assert actual == golden, (
        f"{experiment}: fixed-seed outputs changed; an optimization "
        f"altered simulation behaviour (expected byte identity)")


def test_goldens_cover_all_three_workloads():
    goldens = _load_goldens()
    assert sorted(goldens) == sorted(TRACED + AGGREGATE_ONLY)
    assert sorted(name for name, files in goldens.items()
                  if len(files) > 1) == TRACED
