"""Signed-messages Byzantine agreement (Dolev–Strong) on traffic summaries.

Protocol Π2 requires that "all correct routers in π agree on the values
of info(i, π, τ)" (Fig 5.1), disseminated as digitally signed values.
With signatures, agreement among n members tolerating f faults needs only
f+1 rounds and no n > 3f bound — which is why the paper can run consensus
among the handful of routers of a path-segment.

This is a synchronous-round implementation (the system model *is*
synchronous, §2.1.2).  Each value travels with a signature chain; a value
is admissible in round r only if it carries r+1 valid signatures from
distinct members beginning with the originator.  A faulty originator can
therefore be *silent* or *equivocate*, but cannot forge; equivocation is
detected (two admissible values from one originator) and the originator's
slot decides to ⊥ with proof.

Faulty member behaviour is pluggable so tests can explore the adversary
space: silence, equivocation, selective relaying.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.crypto.keys import KeyInfrastructure
from repro.crypto.signatures import Signed
from repro.obs import recorder


@dataclass(frozen=True)
class ChainedValue:
    """A signed value plus its relay chain.

    ``original`` is the originator's signature over the payload; ``chain``
    holds one relay signature per forwarding hop, each over the original
    signature's MAC (binding the relay to exactly this value).
    """

    original: Signed
    chain: Tuple[Signed, ...] = ()

    @property
    def origin(self) -> str:
        return self.original.signer

    def signers(self) -> Tuple[str, ...]:
        return (self.original.signer,) + tuple(s.signer for s in self.chain)

    def valid(self, keys: KeyInfrastructure, round_index: int) -> bool:
        """Admissible in ``round_index``: enough distinct valid signatures."""
        names = self.signers()
        if len(set(names)) != len(names):
            return False
        if len(names) < round_index + 1:
            return False
        if not self.original.verify(keys.signing_key(self.original.signer)):
            return False
        for link in self.chain:
            expected_payload = (self.original.signer, self.original.mac)
            if link.payload != expected_payload:
                return False
            if not link.verify(keys.signing_key(link.signer)):
                return False
        return True

    def extend(self, relayer: str, keys: KeyInfrastructure) -> "ChainedValue":
        link = Signed.sign((self.original.signer, self.original.mac),
                           relayer, keys.signing_key(relayer))
        return ChainedValue(self.original, self.chain + (link,))


@dataclass
class ConsensusResult:
    """What one correct member decided."""

    member: str
    values: Dict[str, Optional[Any]] = field(default_factory=dict)
    equivocators: Set[str] = field(default_factory=set)
    silent: Set[str] = field(default_factory=set)

    def agreed_vector(self) -> Tuple[Tuple[str, Any], ...]:
        return tuple(sorted(self.values.items(), key=lambda kv: kv[0]))


class FaultyBehavior:
    """Base protocol-faulty behaviour inside consensus: silent."""

    def initial_values(self, member: str, receivers: Sequence[str],
                       keys: KeyInfrastructure) -> Dict[str, List[ChainedValue]]:
        return {r: [] for r in receivers}

    def relay(self, member: str, receivers: Sequence[str],
              new_values: List[ChainedValue],
              keys: KeyInfrastructure) -> Dict[str, List[ChainedValue]]:
        return {r: [] for r in receivers}


class Silent(FaultyBehavior):
    """Sends nothing at all (pure omission)."""


class Equivocator(FaultyBehavior):
    """Sends value_a to the first half of receivers, value_b to the rest,
    and never relays others' values."""

    def __init__(self, value_a: Any, value_b: Any) -> None:
        self.value_a = value_a
        self.value_b = value_b

    def initial_values(self, member, receivers, keys):
        out: Dict[str, List[ChainedValue]] = {}
        half = len(receivers) // 2
        for i, receiver in enumerate(receivers):
            value = self.value_a if i < half else self.value_b
            signed = Signed.sign(value, member, keys.signing_key(member))
            out[receiver] = [ChainedValue(signed)]
        return out


class SignedConsensus:
    """One-shot vector consensus among the routers of a path-segment."""

    def __init__(self, members: Sequence[str], keys: KeyInfrastructure,
                 max_faults: Optional[int] = None) -> None:
        if len(members) != len(set(members)):
            raise ValueError("duplicate members")
        self.members = list(members)
        self.keys = keys
        self.f = max_faults if max_faults is not None else max(0, len(members) - 2)

    def run(
        self,
        inputs: Dict[str, Any],
        faulty: Optional[Dict[str, FaultyBehavior]] = None,
    ) -> Dict[str, ConsensusResult]:
        """Execute f+1 rounds; return each *correct* member's decision.

        ``inputs`` maps correct members to their payload values.  Members
        named in ``faulty`` follow their behaviour object instead.
        """
        faulty = faulty or {}
        correct = [m for m in self.members if m not in faulty]
        # accepted[m][origin] = set of distinct payload canonical forms seen
        accepted: Dict[str, Dict[str, Dict[bytes, ChainedValue]]] = {
            m: {} for m in correct
        }
        inbox: Dict[str, List[ChainedValue]] = {m: [] for m in self.members}

        def key_of(cv: ChainedValue) -> bytes:
            return cv.original.mac

        # Round 0: originators send their own signed value to everyone.
        outgoing: Dict[str, Dict[str, List[ChainedValue]]] = {}
        for member in self.members:
            receivers = [m for m in self.members if m != member]
            if member in faulty:
                outgoing[member] = faulty[member].initial_values(
                    member, receivers, self.keys
                )
            else:
                signed = Signed.sign(inputs.get(member), member,
                                     self.keys.signing_key(member))
                cv = ChainedValue(signed)
                outgoing[member] = {r: [cv] for r in receivers}
                # A member trivially accepts its own value.
                accepted[member].setdefault(member, {})[key_of(cv)] = cv

        for round_index in range(self.f + 1):
            # deliver
            for sender, per_receiver in outgoing.items():
                for receiver, values in per_receiver.items():
                    inbox[receiver].extend(values)
            outgoing = {m: {} for m in self.members}
            # correct members process and prepare relays
            for member in correct:
                newly: List[ChainedValue] = []
                for cv in inbox[member]:
                    # The three rejections that need no signature come
                    # first.  They only ``continue`` (an empty slot left
                    # behind still decides "silent"), so whatever the
                    # inbox holds, checking validity last accepts the
                    # same values as checking it first would.
                    if member in cv.signers():
                        continue
                    slot = accepted[member].setdefault(cv.origin, {})
                    if key_of(cv) in slot:
                        continue
                    if len(slot) >= 2:
                        continue  # already have equivocation proof
                    if not cv.valid(self.keys, round_index):
                        continue
                    slot[key_of(cv)] = cv
                    newly.append(cv)
                inbox[member] = []
                if round_index == self.f:
                    continue  # last round: nothing sent now is delivered
                # One relay signature per value, shared by every receiver.
                relays = [cv.extend(member, self.keys) for cv in newly]
                outgoing[member] = {
                    r: relays for r in self.members if r != member
                }
            # faulty members may relay per their behaviour
            for member, behavior in faulty.items():
                receivers = [m for m in self.members if m != member]
                new_values = inbox[member]
                inbox[member] = []
                outgoing[member] = behavior.relay(
                    member, receivers, new_values, self.keys
                )

        results: Dict[str, ConsensusResult] = {}
        for member in correct:
            result = ConsensusResult(member=member)
            for origin in self.members:
                slot = accepted[member].get(origin, {})
                if len(slot) == 1:
                    (only,) = slot.values()
                    result.values[origin] = only.original.payload
                elif len(slot) >= 2:
                    result.values[origin] = None
                    result.equivocators.add(origin)
                else:
                    result.values[origin] = None
                    result.silent.add(origin)
            results[member] = result
        rec = recorder()
        if rec.active:
            metrics = rec.metrics
            metrics.counter("repro.dist.consensus.runs").inc()
            metrics.counter("repro.dist.consensus.rounds").inc(self.f + 1)
            metrics.histogram(
                "repro.dist.consensus.members").observe(len(self.members))
            equivocators: Set[str] = set()
            silent: Set[str] = set()
            for member in sorted(results):
                equivocators |= results[member].equivocators
                silent |= results[member].silent
            metrics.counter(
                "repro.dist.consensus.equivocators").inc(len(equivocators))
            metrics.counter(
                "repro.dist.consensus.silent").inc(len(silent))
        return results
