"""§7.1/§7.2 — microbenchmarks of the per-packet machinery.

Chapter 7 analyses the protocols' runtime costs: fingerprint computation
per packet, summary state per round, and set-difference computation for
distributed reconciliation.  These benches measure our implementations
directly (true per-op timings, unlike the figure benches).
"""

import pytest

from repro.core import SummaryBuilder, SummaryPolicy
from repro.crypto.fingerprint import fingerprint
from repro.dist.reconcile import (
    BloomFilter,
    CharacteristicPolynomialSet,
    reconcile,
)
from repro.net import Packet


def test_fingerprint_per_packet(benchmark):
    """§7.1: one keyed fingerprint per forwarded packet."""
    packet = Packet(src="a", dst="b", payload=b"x" * 64)
    result = benchmark(fingerprint, packet, b"key")
    assert 0 <= result < (1 << 64)


def test_summary_observation(benchmark):
    """Per-packet summary update (the in-kernel hot path of Fig 5.5)."""
    builder = SummaryBuilder("r", ("a", "b"), 0, "sent",
                             SummaryPolicy.CONTENT)

    counter = iter(range(10**9))

    def observe():
        builder.observe(next(counter), 1000, 0.0)

    benchmark(observe)
    assert builder.count > 0


def test_polynomial_reconciliation(benchmark):
    """Appendix A: O(d) communication set difference, per round."""
    set_a = set(range(10_000, 11_000))
    set_b = (set_a - {10_001, 10_002}) | {1, 2, 3}

    def round_trip():
        message = CharacteristicPolynomialSet.from_set(set_a, max_diff=8)
        return reconcile(set_b, message, max_diff=8)

    remote_only, local_only = benchmark.pedantic(round_trip, rounds=3,
                                                 iterations=1)
    assert len(remote_only) == 2
    assert local_only == {1, 2, 3}


def test_disabled_recorder_guard(benchmark):
    """repro.obs: the attribute-read + branch every instrumented seam
    pays while tracing is off.  Must stay in the nanoseconds — the
    observability subsystem's contract is that it is free when unused.
    """
    from repro.obs import recorder

    rec = recorder()
    assert not rec.active

    def guard():
        return rec.active

    assert benchmark(guard) is False


def test_bloom_filter_difference(benchmark):
    """The cheaper, approximate alternative of §2.4.1."""
    def build_and_estimate():
        from repro.dist.reconcile import bloom_difference_estimate
        a = BloomFilter(bits=16_384, hashes=4)
        b = BloomFilter(bits=16_384, hashes=4)
        for x in range(1000):
            a.add(x)
            b.add(x)
        for x in range(5000, 5050):
            a.add(x)
        return bloom_difference_estimate(a, b)

    estimate = benchmark.pedantic(build_and_estimate, rounds=3, iterations=1)
    assert estimate == pytest.approx(50, rel=0.5)
