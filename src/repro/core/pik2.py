"""Protocol Πk+2 — complete, accurate, precision k+2 (Fig 5.3).

Only the *ends* of each monitored x-path-segment (3 ≤ x ≤ k+2) validate.
At the end of each round the two ends exchange digitally signed summaries
**through the monitored path-segment itself** within a timeout µ; if the
exchange fails (a protocol-faulty intermediate suppressed it) or TV over
the exchanged summaries fails, the end suspects the whole segment and
reliably broadcasts the signed suspicion [π]_r.

Because intermediate routers neither record nor relay summaries, the
protocol is cheap (Fig 5.4) and admits *secret sampling*: the ends agree
on a keyed hash range unknown to intermediaries, so a faulty router
cannot confine its attack to unmonitored packets (§5.2.1).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.core.codecs import encode_summary
from repro.core.detector import PiConfig, RoundDetector, Suspicion, run_tv
from repro.core.summaries import (
    PathSegment,
    SegmentMonitor,
    SummaryPolicy,
    TrafficSummary,
)
from repro.crypto.keys import KeyInfrastructure
from repro.crypto.signatures import Signed
from repro.dist.sync import RoundSchedule
from repro.net import Network


# Protocol-faulty claim hook for an *end* router: maps the honest summary
# to what it actually sends (or None to stay silent).
EndReporter = Callable[[TrafficSummary], Optional[TrafficSummary]]


class ProtocolPiK2(RoundDetector):
    """Distributed Πk+2 over a simulated network."""

    #: µ: how long a sink waits for the source's summary (seconds).
    exchange_timeout = 1.0

    def __init__(
        self,
        network: Network,
        monitor: SegmentMonitor,
        segments: Iterable[PathSegment],
        keys: KeyInfrastructure,
        schedule: RoundSchedule,
        config: Optional[PiConfig] = None,
        reporters: Optional[Dict[str, EndReporter]] = None,
        on_suspicion: Optional[Callable[[Suspicion], None]] = None,
    ) -> None:
        config = config or PiConfig()
        super().__init__(network, schedule, config.settle_delay,
                         on_suspicion)
        self.config = config
        self.monitor = monitor
        self.keys = keys
        self.reporters = reporters or {}
        self.segments = sorted(set(tuple(s) for s in segments))
        for segment in self.segments:
            # Only the two ends record traffic for this segment.
            monitor.watch_segment(segment,
                                  monitors=(segment[0], segment[-1]))
        self.stopped = False
        self.exchange_bytes = 0  # summary bandwidth (ablation metric)
        # (segment, round) of each open exchange -> the remote summary
        # the sink has received for it, None until one arrives.
        self._mailbox: Dict[Tuple[PathSegment, int], object] = {}

    @property
    def precision(self) -> int:
        """Appendix B: Πk+2 suspects whole (k+2)-segments."""
        return self.config.k + 2

    # -- exchange phase -----------------------------------------------------
    def stop(self) -> None:
        """Disarm future rounds (in-flight conclusions still finish).

        Used after a detection: the response reroutes traffic, so this
        instance's path oracle is stale and further rounds would
        misattribute traffic during the transient (§4.1).
        """
        self.stopped = True

    def evaluate_round(self, round_index: int) -> None:
        if self.stopped:
            return
        for segment in self.segments:
            self._exchange_segment(segment, round_index)

    def _exchange_segment(self, segment: PathSegment, round_index: int) -> None:
        source, sink = segment[0], segment[-1]
        self._mailbox[(segment, round_index)] = None
        # The source sends its "sent into π" summary to the sink, through π.
        honest = self.monitor.summary(segment, source, "sent", round_index)
        claim = self.reporters.get(source, lambda s: s)(honest)
        if claim is not None:
            if (self.config.codec != "full"
                    and isinstance(claim, TrafficSummary)
                    and claim.policy is SummaryPolicy.CONTENT):
                claim = encode_summary(claim, self.config.codec)
                self.exchange_bytes += claim.wire_bytes
            elif isinstance(claim, TrafficSummary):
                fps = claim.fingerprints
                self.exchange_bytes += 16 + 8 * (len(fps) if fps else 0)
            # The signature covers the segment and the round, so an
            # on-path router cannot replay one round's summary as
            # another's.
            signed = Signed.sign((segment, round_index, claim), source,
                                 self.keys.signing_key(source))
            self.network.send_control(
                source, sink, signed,
                on_deliver=self._deliver_summary,
                via_path=segment,
            )
        # Timeout at the sink: if nothing verifiable arrived by µ, suspect.
        self.network.sim.schedule(
            self.exchange_timeout, self._conclude, segment, round_index
        )

    def _deliver_summary(self, signed) -> None:
        if not isinstance(signed, Signed):
            return
        if not signed.verify(self.keys.signing_key(signed.signer)):
            return  # tampered in transit; timeout will fire
        segment, round_index, claim = signed.payload
        # Filed only under the pair the signature covers, and only while
        # that exchange is open: a replay or a late delivery is dropped.
        if (signed.signer == segment[0]
                and (segment, round_index) in self._mailbox):
            self._mailbox[(segment, round_index)] = claim

    def _conclude(self, segment: PathSegment, round_index: int) -> None:
        remote = self._mailbox.pop((segment, round_index), None)
        self._validate_exchange(segment, round_index, remote)
        if segment == self.segments[-1]:
            # A round's conclusions fire at one instant in segment order,
            # and rounds conclude in round order whatever µ is against τ:
            # nothing reads this round or an earlier one again.
            self.monitor.drop_rounds_before(round_index + 1)

    def _validate_exchange(self, segment: PathSegment, round_index: int,
                           remote) -> None:
        sink = segment[-1]
        # A compromised sink is a faulty *validator*: it simply stays
        # silent.  This is why AdjacentFault(k) forces monitored segments
        # of length k+2 — only then is some segment spanning the faulty
        # run guaranteed two correct ends (§5.2, Appendix B).
        if self.network.routers[sink].compromise is not None:
            return
        if remote is None:
            self._suspect(segment, round_index, "summary exchange timed out")
            return
        local = self.monitor.summary(segment, sink, "received", round_index)
        result = run_tv(remote, local, self.config)
        if not result.ok:
            self._suspect(segment, round_index, f"TV failed: {result.detail}")

    def _suspect(self, segment: PathSegment, round_index: int,
                 reason: str) -> None:
        # §5.2: the sink announces the signed suspicion [π]_r.
        self.announce(Suspicion(segment=segment,
                                interval=self.schedule.interval(round_index),
                                suspected_by=segment[-1], reason=reason),
                      (segment[-1],))
