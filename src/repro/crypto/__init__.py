"""Cryptographic tools and key distribution (§2.1.5).

Real hash primitives (BLAKE2) over the packet's invariant identity, an
administratively seeded key infrastructure (per-router signing keys and
per-segment sampling keys) and HMAC-style signatures.  The
detection protocols need authenticity and integrity, not confidentiality
(§2.1.5 n.2); these modules provide exactly that surface.
"""

from repro.crypto.fingerprint import (
    fingerprint,
    fingerprint_bytes,
    FingerprintSampler,
)
from repro.crypto.keys import KeyInfrastructure
from repro.crypto.signatures import Signed, canonical_bytes

__all__ = [
    "fingerprint",
    "fingerprint_bytes",
    "FingerprintSampler",
    "KeyInfrastructure",
    "Signed",
    "canonical_bytes",
]
