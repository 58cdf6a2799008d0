"""Relaying adversaries for :class:`repro.dist.consensus.SignedConsensus`.

The library ships ``Silent`` and ``Equivocator``; neither relays, so
neither can put a hostile value into a correct member's inbox after
round 0.  These do.  A behaviour is handed the key infrastructure (that
is the ``FaultyBehavior`` interface), but each one here signs only as
itself: what it knows of others is the MACs it has seen or could have
seen in an earlier exchange of the same summary.

``reference_decisions`` is the textbook loop the optimised ``run`` must
agree with on *any* inbox: every signature of every delivered value is
verified before anything else is looked at.
"""

from typing import Any, Dict, List, Sequence, Set, Tuple

from repro.crypto.keys import KeyInfrastructure
from repro.crypto.signatures import Signed
from repro.dist.consensus import ChainedValue, FaultyBehavior

#: The payload no correct member may ever decide.
FORGED = ("forged", "payload")


def _own_value(member: str, value: Any, keys: KeyInfrastructure) -> ChainedValue:
    return ChainedValue(Signed.sign(value, member, keys.signing_key(member)))


class Forger(FaultyBehavior):
    """Puts :data:`FORGED` under honest MACs: ``[forged]_origin``.

    ``victims`` maps originators to the payloads they will sign, so the
    forgery can be in flight in round 0, *before* the honest copy lands
    (whether it is first in a receiver's inbox depends on member order);
    ``relay`` forges everything it hears, with its own valid relay
    signature appended, *after* the honest copy was accepted.
    """

    def __init__(self, victims: Dict[str, Any]) -> None:
        self.victims = victims

    @staticmethod
    def _forge(cv: ChainedValue) -> ChainedValue:
        swapped = Signed(payload=FORGED, signer=cv.origin, mac=cv.original.mac)
        return ChainedValue(swapped, cv.chain)

    def initial_values(self, member, receivers, keys):
        forged = [self._forge(_own_value(origin, payload, keys))
                  for origin, payload in sorted(self.victims.items())]
        return {r: list(forged) for r in receivers}

    def relay(self, member, receivers, new_values, keys):
        forged = [self._forge(cv if member in cv.signers()
                              else cv.extend(member, keys))
                  for cv in new_values]
        return {r: list(forged) for r in receivers}


class Replayer(FaultyBehavior):
    """Originates honestly, then replays whatever it hears to everyone —
    the originator included (a chain naming its receiver) — unchanged,
    relayed once, relayed again (sent twice), and with its own signature
    on the chain twice."""

    def __init__(self, value: Any) -> None:
        self.value = value

    def initial_values(self, member, receivers, keys):
        cv = _own_value(member, self.value, keys)
        return {r: [cv, cv] for r in receivers}

    def relay(self, member, receivers, new_values, keys):
        out: List[ChainedValue] = []
        for cv in new_values:
            once = cv.extend(member, keys)
            out += [cv, once, once, once.extend(member, keys)]
        return {r: list(out) for r in receivers}


class SelectiveRelay(FaultyBehavior):
    """Follows the protocol, but only towards ``favoured`` receivers."""

    def __init__(self, value: Any, favoured: Set[str]) -> None:
        self.value = value
        self.favoured = favoured

    def initial_values(self, member, receivers, keys):
        cv = _own_value(member, self.value, keys)
        return {r: [cv] if r in self.favoured else [] for r in receivers}

    def relay(self, member, receivers, new_values, keys):
        relays = [cv.extend(member, keys) for cv in new_values
                  if member not in cv.signers()]
        return {r: list(relays) if r in self.favoured else []
                for r in receivers}


Decision = Tuple[Tuple[Tuple[str, Any], ...], frozenset, frozenset]


def decisions(results) -> Dict[str, Decision]:
    """``SignedConsensus.run``'s results in ``reference_decisions``' shape."""
    return {member: (r.agreed_vector(), frozenset(r.equivocators),
                     frozenset(r.silent))
            for member, r in results.items()}


def reference_decisions(members: Sequence[str], keys: KeyInfrastructure,
                        max_faults: int, inputs: Dict[str, Any],
                        faulty: Dict[str, FaultyBehavior]) -> Dict[str, Decision]:
    """Dolev–Strong as written down: validate first, then look at the slot.

    Returns ``member -> (agreed vector, equivocators, silent)`` for the
    correct members.
    """
    correct = [m for m in members if m not in faulty]
    others = {m: [r for r in members if r != m] for m in members}
    accepted: Dict[str, Dict[str, Dict[bytes, Any]]] = {m: {} for m in correct}
    outgoing: Dict[str, Dict[str, List[ChainedValue]]] = {}
    for member in members:
        if member in faulty:
            outgoing[member] = faulty[member].initial_values(
                member, others[member], keys)
        else:
            cv = _own_value(member, inputs.get(member), keys)
            outgoing[member] = {r: [cv] for r in others[member]}
            accepted[member][member] = {cv.original.mac: cv.original.payload}
    for round_index in range(max_faults + 1):
        inbox: Dict[str, List[ChainedValue]] = {m: [] for m in members}
        for per_receiver in outgoing.values():
            for receiver, values in per_receiver.items():
                inbox[receiver].extend(values)
        outgoing = {}
        for member in correct:
            outgoing[member] = {r: [] for r in others[member]}
            for cv in inbox[member]:
                if not cv.valid(keys, round_index):
                    continue
                slot = accepted[member].setdefault(cv.origin, {})
                if (member in cv.signers() or cv.original.mac in slot
                        or len(slot) >= 2):
                    continue
                slot[cv.original.mac] = cv.original.payload
                for receiver in others[member]:
                    outgoing[member][receiver].append(cv.extend(member, keys))
        for member, behavior in faulty.items():
            outgoing[member] = behavior.relay(
                member, others[member], inbox[member], keys)
    decided: Dict[str, Decision] = {}
    for member in correct:
        slots = {origin: accepted[member].get(origin, {}) for origin in members}
        vector = tuple(sorted(
            (origin, next(iter(slot.values())) if len(slot) == 1 else None)
            for origin, slot in slots.items()))
        decided[member] = (
            vector,
            frozenset(o for o, slot in slots.items() if len(slot) >= 2),
            frozenset(o for o, slot in slots.items() if not slot))
    return decided
