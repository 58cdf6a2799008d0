"""Traffic validation predicates TV(π, info(ri), info(rj)) — §4.2.1.

Each conservation policy gets a predicate comparing an upstream summary
(what ri claims to have sent along π) against a downstream one (what rj
observed).  Real networks lose a little traffic benignly, so every
predicate takes a ``threshold``: the acceptable discrepancy below which
behaviour is deemed normal.  (Protocol χ exists precisely because picking
this threshold statically is unsound; see :mod:`repro.core.chi`.)

Thresholds are expressed in packets.  ``validate`` dispatches on the
summaries' policy.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.summaries import SummaryPolicy, TrafficSummary


@dataclass
class TVResult:
    """Outcome of one traffic validation."""

    ok: bool
    discrepancy: float
    detail: str = ""
    missing: int = 0  # packets upstream saw but downstream did not
    extra: int = 0  # packets downstream saw but upstream did not (fabricated/modified)
    reordered: int = 0
    delayed: int = 0

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


def _check_policies(upstream: TrafficSummary, downstream: TrafficSummary,
                    *allowed: SummaryPolicy) -> None:
    if upstream.policy is not downstream.policy:
        raise ValueError("summaries use different policies")
    if upstream.policy not in allowed:
        raise ValueError(
            f"policy {upstream.policy} unsupported by this predicate"
        )


def tv_flow(upstream: TrafficSummary, downstream: TrafficSummary,
            threshold: int = 0) -> TVResult:
    """Conservation of flow: packet counts must agree within threshold.

    Fragile (a router that fabricates can fudge the count, §2.4.1) but
    nearly free — the WATCHERS policy.
    """
    missing = max(0, upstream.count - downstream.count)
    extra = max(0, downstream.count - upstream.count)
    discrepancy = abs(upstream.count - downstream.count)
    return TVResult(
        ok=discrepancy <= threshold,
        discrepancy=discrepancy,
        missing=missing,
        extra=extra,
        detail=f"counts {upstream.count} vs {downstream.count}",
    )


def tv_content(upstream: TrafficSummary, downstream: TrafficSummary,
               threshold: int = 0) -> TVResult:
    """Conservation of content: fingerprint sets must agree.

    Detects loss, modification, fabrication and misrouting: a modified
    packet appears as one missing + one extra fingerprint.
    """
    _check_policies(upstream, downstream, SummaryPolicy.CONTENT,
                    SummaryPolicy.ORDER, SummaryPolicy.TIMELINESS)
    up = upstream.fingerprints or frozenset()
    down = downstream.fingerprints or frozenset()
    missing = len(up - down)
    extra = len(down - up)
    discrepancy = missing + extra
    return TVResult(
        ok=discrepancy <= threshold,
        discrepancy=discrepancy,
        missing=missing,
        extra=extra,
        detail=f"|Δ|={discrepancy} (missing={missing}, extra={extra})",
    )


def _longest_increasing_subsequence_length(seq: List[int]) -> int:
    tails: List[int] = []
    for value in seq:
        pos = bisect.bisect_left(tails, value)
        if pos == len(tails):
            tails.append(value)
        else:
            tails[pos] = value
    return len(tails)


def reorder_metric(sent: Tuple[int, ...], received: Tuple[int, ...]) -> int:
    """|S| − |ℓ| of §2.2.1: common packets minus their longest common
    subsequence.  Fingerprints are unique, so the LCS of the two orders
    equals the longest increasing subsequence of the received packets'
    send positions — computable in O(n log n)."""
    send_pos = {fp: i for i, fp in enumerate(sent)}
    positions = [send_pos[fp] for fp in received if fp in send_pos]
    if not positions:
        return 0
    return len(positions) - _longest_increasing_subsequence_length(positions)


def tv_order(upstream: TrafficSummary, downstream: TrafficSummary,
             content_threshold: int = 0, reorder_threshold: int = 0) -> TVResult:
    """Conservation of order: content must agree *and* order be preserved."""
    _check_policies(upstream, downstream, SummaryPolicy.ORDER,
                    SummaryPolicy.TIMELINESS)
    base = tv_content(upstream, downstream, content_threshold)
    reordered = reorder_metric(upstream.ordered or (), downstream.ordered or ())
    ok = base.ok and reordered <= reorder_threshold
    return TVResult(
        ok=ok,
        discrepancy=base.discrepancy + reordered,
        missing=base.missing,
        extra=base.extra,
        reordered=reordered,
        detail=f"{base.detail}; reordered={reordered}",
    )


def tv_timeliness(upstream: TrafficSummary, downstream: TrafficSummary,
                  max_delay: float, content_threshold: int = 0,
                  delayed_threshold: int = 0) -> TVResult:
    """Conservation of timeliness: per-packet transit within ``max_delay``.

    ``max_delay`` covers legitimate forwarding latency between the two
    observation points (propagation + queueing allowance + clock skew).
    """
    _check_policies(upstream, downstream, SummaryPolicy.TIMELINESS)
    base = tv_content(upstream, downstream, content_threshold)
    sent_at: Dict[int, float] = dict(upstream.timestamps or ())
    delayed = 0
    worst = 0.0
    for fp, t_arrive in (downstream.timestamps or ()):
        t_sent = sent_at.get(fp)
        if t_sent is None:
            continue
        transit = t_arrive - t_sent
        worst = max(worst, transit)
        if transit > max_delay:
            delayed += 1
    ok = base.ok and delayed <= delayed_threshold
    return TVResult(
        ok=ok,
        discrepancy=base.discrepancy + delayed,
        missing=base.missing,
        extra=base.extra,
        delayed=delayed,
        detail=f"{base.detail}; delayed={delayed} (worst={worst:.4f}s)",
    )


def validate(upstream: TrafficSummary, downstream: TrafficSummary,
             threshold: int = 0,
             max_delay: Optional[float] = None) -> TVResult:
    """Dispatch to the right predicate for the summaries' policy."""
    policy = upstream.policy
    if policy is SummaryPolicy.FLOW:
        return tv_flow(upstream, downstream, threshold)
    if policy is SummaryPolicy.CONTENT:
        return tv_content(upstream, downstream, threshold)
    if policy is SummaryPolicy.ORDER:
        return tv_order(upstream, downstream, threshold)
    if policy is SummaryPolicy.TIMELINESS:
        if max_delay is None:
            raise ValueError("timeliness validation needs max_delay")
        return tv_timeliness(upstream, downstream, max_delay, threshold)
    raise ValueError(f"unknown policy {policy!r}")
