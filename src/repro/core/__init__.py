"""The paper's primary contribution.

* traffic summaries and conservation-of-traffic validation (§2.4.1, §4.2.1)
* the failure-detector specification (§4.2.2)
* Protocol Π2 (Fig 5.1) and Protocol Πk+2 (Fig 5.3), armed on a network
  by :func:`arm_protocol`
* Protocol χ with droptail queue prediction and RED validation (Ch. 6)
* the rejected traffic-modeling approach (§6.1.2)
* the Fatih prototype system (§5.3)

The supported surface is exactly ``__all__``; the submodules behind it
are internal, and the ``API001`` lint rule flags in-repo imports that
bypass the package for names it already exports.
"""

from repro.core.summaries import (
    SummaryPolicy,
    TrafficSummary,
    SummaryBuilder,
    PathOracle,
    EcmpPathOracle,
    SegmentMonitor,
)
from repro.core.validation import (
    TVResult,
    tv_flow,
    tv_content,
    tv_order,
    tv_timeliness,
    validate,
)
from repro.core.detector import (
    Suspicion,
    DetectorState,
    PiConfig,
    accuracy_report,
    completeness_report,
    segment_id,
)
from repro.core.segments import (
    all_routing_paths,
    enumerate_segments,
    monitored_segments_pi2,
    monitored_segments_pik2,
    pr_statistics,
    arm_protocol,
)
from repro.core.pi2 import ProtocolPi2
from repro.core.pik2 import ProtocolPiK2
from repro.core.chi import ProtocolChi, QueueValidator
from repro.core.qmodel import appenzeller_sigma, appenzeller_loss_probability
from repro.core.fatih import FatihSystem
from repro.core.replica import ReplicaDetector, ReplicaDiscrepancy
from repro.core.codecs import EncodedSummary, encode_summary, validate_encoded

__all__ = [
    "SummaryPolicy",
    "TrafficSummary",
    "SummaryBuilder",
    "PathOracle",
    "EcmpPathOracle",
    "SegmentMonitor",
    "TVResult",
    "tv_flow",
    "tv_content",
    "tv_order",
    "tv_timeliness",
    "validate",
    "Suspicion",
    "DetectorState",
    "PiConfig",
    "accuracy_report",
    "completeness_report",
    "segment_id",
    "all_routing_paths",
    "enumerate_segments",
    "monitored_segments_pi2",
    "monitored_segments_pik2",
    "pr_statistics",
    "arm_protocol",
    "ProtocolPi2",
    "ProtocolPiK2",
    "ProtocolChi",
    "QueueValidator",
    "appenzeller_sigma",
    "appenzeller_loss_probability",
    "FatihSystem",
    "ReplicaDetector",
    "ReplicaDiscrepancy",
    "EncodedSummary",
    "encode_summary",
    "validate_encoded",
]
