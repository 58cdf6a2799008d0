"""An abstract single-path network for probing-protocol baselines.

PERLMAN, SecTrace and AWERBUCH all reason about one fixed path
⟨r0 … rn⟩ in a synchronous model.  :class:`PathModel` simulates message
walks along such a path with per-router Byzantine behaviours:

* dropping data packets (optionally only after some round — the
  attack-after-validation framing trick of Fig 3.7);
* dropping *acks or protocol messages* selectively by originator — the
  collusion primitive behind Fig 3.8;
* corrupting payloads.

The model is deliberately message-level (no queues, no timing): these
baselines' interesting properties are about *who can be framed and who
goes undetected*, which is a pure information-flow question.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple


@dataclass
class FaultyNode:
    """Byzantine behaviour of one router in the path model."""

    # Drop a data packet travelling forward?  (round, payload) -> bool
    drop_data: Optional[Callable[[int, object], bool]] = None
    # Drop a protocol message (ack/announcement) relayed backwards?
    # (round, origin, kind) -> bool
    drop_protocol: Optional[Callable[[int, str, str], bool]] = None
    # Corrupt a data packet: payload -> payload
    corrupt: Optional[Callable[[object], object]] = None
    # First round at which the node begins misbehaving.
    active_from_round: int = 0

    def drops_data(self, round_index: int, payload: object) -> bool:
        if round_index < self.active_from_round or self.drop_data is None:
            return False
        return self.drop_data(round_index, payload)

    def drops_protocol(self, round_index: int, origin: str, kind: str) -> bool:
        if round_index < self.active_from_round or self.drop_protocol is None:
            return False
        return self.drop_protocol(round_index, origin, kind)

    def corrupts(self, round_index: int, payload: object) -> object:
        if round_index < self.active_from_round or self.corrupt is None:
            return payload
        return self.corrupt(payload)


class PathModel:
    """A fixed path with per-node Byzantine behaviours."""

    def __init__(self, path: Sequence[str],
                 faulty: Optional[Dict[str, FaultyNode]] = None) -> None:
        if len(path) < 2:
            raise ValueError("a path needs at least two routers")
        if len(set(path)) != len(path):
            raise ValueError("path routers must be distinct")
        self.path = list(path)
        self.faulty = faulty or {}

    def is_faulty(self, router: str) -> bool:
        return router in self.faulty

    # -- message walks ---------------------------------------------------------
    def send_data(self, round_index: int, payload: object,
                  from_index: int = 0,
                  to_index: Optional[int] = None) -> Tuple[Optional[int], object]:
        """Walk a data packet forward.

        Transit routers (strictly between ``from_index`` and ``to_index``)
        may drop or corrupt it.  Returns (dropper_index, payload):
        ``dropper_index`` is None when the packet arrived at ``to_index``
        (default: the destination), otherwise the index of the router
        that swallowed it.
        """
        to_index = len(self.path) - 1 if to_index is None else to_index
        current = payload
        for j in range(from_index + 1, to_index):
            node = self.faulty.get(self.path[j])
            if node is None:
                continue
            if node.drops_data(round_index, current):
                return (j, current)
            current = node.corrupts(round_index, current)
        return (None, current)

    def send_protocol(self, round_index: int, origin: str, kind: str,
                      from_index: int, to_index: int) -> Optional[int]:
        """Walk a protocol message (ack, report) between two indices.

        Works in either direction; only routers strictly between the two
        endpoints can suppress it.  Returns None if delivered, else the
        index of the suppressing router.
        """
        step = 1 if to_index > from_index else -1
        for j in range(from_index + step, to_index, step):
            relay = self.path[j]
            if relay == origin:
                continue
            node = self.faulty.get(relay)
            if node is not None and node.drops_protocol(round_index, origin, kind):
                return j
        return None
