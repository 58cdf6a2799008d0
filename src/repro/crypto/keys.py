"""Key distribution (§2.1.5).

The paper assumes "the administrative ability to assign and distribute
shared keys to sets of nearby routers" or a PKI.  We model both with a
deterministic derivation from an administrative master secret: per-router
signing keys for the digital signatures Π2's consensus requires, and a
secret sampling key shared by a monitored segment's two ends.

Only the infrastructure object can mint keys; adversary code in this
library never holds another router's key, so "forging" is structurally
impossible rather than merely discouraged.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Dict


class KeyInfrastructure:
    """Derives and hands out keys; stands in for IKE / Diffie-Hellman."""

    def __init__(self, master_secret: bytes = b"repro-master") -> None:
        self._master = master_secret
        self._router_cache: Dict[str, bytes] = {}

    def _derive(self, label: bytes) -> bytes:
        return hmac.new(self._master, label, hashlib.sha256).digest()

    def signing_key(self, router: str) -> bytes:
        """Private signing key for ``router`` (PKI stand-in).

        Verification uses the same key (MAC-as-signature); the library's
        trust model is enforced by *who is given the key object*, namely
        only the router's own protocol instance.
        """
        if router not in self._router_cache:
            self._router_cache[router] = self._derive(b"sign|" + router.encode())
        return self._router_cache[router]

    def sampling_key(self, a: str, b: str) -> bytes:
        """Secret hash-range sampling key for a monitored segment's ends."""
        lo, hi = sorted((a, b))
        return self._derive(b"sample|" + lo.encode() + b"|" + hi.encode())
