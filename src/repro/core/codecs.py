"""Summary exchange codecs — the §2.4.1 bandwidth/accuracy tradeoff.

Conservation-of-content validation needs the symmetric difference of two
fingerprint sets.  Three ways to ship the information, with very
different wire costs:

============  =====================================  ===================
codec         wire size                              accuracy
============  =====================================  ===================
full          8 B × |set|                            exact
polynomial    8 B × (d+1), d = agreed diff bound     exact while the true
              (Minsky–Trachtenberg, Appendix A)      difference ≤ d;
                                                     overflow is detected
bloom         m/8 B (fixed)                          estimate only; can
                                                     under/over-count
============  =====================================  ===================

``encode_summary``/``validate_encoded`` plug into Πk+2's exchange: the
sending end encodes its "sent into π" summary, the receiving end
validates against its own observations.  A polynomial overflow (the
difference exceeded the agreed bound) is treated as a failed validation:
whatever happened was far beyond the benign-loss allowance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.summaries import SummaryPolicy, TrafficSummary
from repro.core.validation import TVResult
from repro.dist.reconcile import (
    BloomFilter,
    CharacteristicPolynomialSet,
    ReconciliationError,
    bloom_difference_estimate,
    reconcile,
)

FINGERPRINT_WIRE_BYTES = 8
HEADER_WIRE_BYTES = 16  # counts + round/segment identifiers
#: The polynomial codec's default agreed difference bound d.
POLYNOMIAL_MAX_DIFF = 12
#: A bloom summary's filter size in bits and its number of hashes.
BLOOM_BITS = 2048
BLOOM_HASHES = 4


@dataclass
class EncodedSummary:
    """A summary as it would travel on the wire."""

    codec: str  # "full" | "polynomial" | "bloom"
    count: int
    byte_count: int
    payload: object
    wire_bytes: int


def encode_summary(summary: TrafficSummary, codec: str,
                   max_diff: int = POLYNOMIAL_MAX_DIFF) -> EncodedSummary:
    if summary.policy is not SummaryPolicy.CONTENT:
        raise ValueError("codecs operate on content summaries")
    fps = summary.fingerprints or frozenset()
    if codec == "full":
        payload: object = fps
        wire = HEADER_WIRE_BYTES + FINGERPRINT_WIRE_BYTES * len(fps)
    elif codec == "polynomial":
        payload = CharacteristicPolynomialSet.from_set(fps, max_diff)
        wire = HEADER_WIRE_BYTES + FINGERPRINT_WIRE_BYTES * (max_diff + 1)
    elif codec == "bloom":
        bloom = BloomFilter(bits=BLOOM_BITS, hashes=BLOOM_HASHES)
        for fp in fps:
            bloom.add(fp)
        # Wire (and signature) friendly representation.
        payload = (BLOOM_BITS, BLOOM_HASHES, bloom.count, bloom.to_bytes())
        wire = HEADER_WIRE_BYTES + BLOOM_BITS // 8
    else:
        raise ValueError(f"unknown codec {codec!r}")
    return EncodedSummary(codec=codec, count=summary.count,
                          byte_count=summary.byte_count, payload=payload,
                          wire_bytes=wire)


def validate_encoded(encoded: EncodedSummary, local: TrafficSummary,
                     threshold: int = 0) -> TVResult:
    """Conservation-of-content TV against an encoded remote summary.

    The codec's parameters (the polynomial bound, the bloom filter's
    size and hashes) travel in the payload.
    """
    local_fps = set(local.fingerprints or frozenset())
    if encoded.codec == "full":
        remote_fps = set(encoded.payload)  # type: ignore[arg-type]
        missing = len(remote_fps - local_fps)
        extra = len(local_fps - remote_fps)
        discrepancy = missing + extra
        return TVResult(ok=discrepancy <= threshold,
                        discrepancy=discrepancy,
                        missing=missing, extra=extra,
                        detail=f"full: |Δ|={discrepancy}")
    if encoded.codec == "polynomial":
        message: CharacteristicPolynomialSet = encoded.payload  # type: ignore
        max_diff = len(message.evaluations) - 1
        try:
            remote_only, local_only = reconcile(local_fps, message, max_diff)
        except ReconciliationError:
            return TVResult(
                ok=False, discrepancy=float(max_diff + 1),
                missing=max_diff + 1,
                detail=f"polynomial: difference exceeds bound {max_diff}",
            )
        discrepancy = len(remote_only) + len(local_only)
        return TVResult(ok=discrepancy <= threshold,
                        discrepancy=discrepancy,
                        missing=len(remote_only), extra=len(local_only),
                        detail=f"polynomial: |Δ|={discrepancy}")
    if encoded.codec == "bloom":
        bits, hashes, count, data = encoded.payload  # type: ignore
        remote_bloom = BloomFilter.from_bytes(data, bits, hashes, count)
        local_bloom = BloomFilter(bits=bits, hashes=hashes)
        for fp in sorted(local_fps):
            local_bloom.add(fp)
        estimate = bloom_difference_estimate(remote_bloom, local_bloom)
        threshold = float(threshold)
        return TVResult(ok=estimate <= threshold + 0.5,
                        discrepancy=estimate,
                        detail=f"bloom: |Δ|≈{estimate:.1f}")
    raise ValueError(f"unknown codec {encoded.codec!r}")
