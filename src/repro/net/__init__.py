"""Network substrate: discrete-event simulator, routers, queues, routing, traffic.

This package implements the packet-switched network model of Chapter 2/4 of
the paper: routers interconnected by directional point-to-point links, each
router forwarding hop-by-hop from a local forwarding table computed by a
link-state routing protocol.  Output interfaces are buffered by droptail or
RED queues; monitors can tap enqueue/transmit/drop/receive events to build
the traffic summaries that the detection protocols consume.

The supported surface is exactly ``__all__``; the submodules behind it
are internal, and the ``API001`` lint rule flags in-repo imports that
bypass the package for names it already exports.
"""

from repro.net.events import Simulator
from repro.net.packet import Packet, PacketKind
from repro.net.topology import (
    MBPS,
    Topology,
    Link,
    abilene,
    chain,
    diamond,
    ebone_like,
    grid,
    ring,
    sprintlink_like,
)
from repro.net.queues import DropTailQueue, REDParams, REDQueue, QueueEvent
from repro.net.router import ForwardAction, MonitorTap, Network, Router
from repro.net.routing import LinkStateRouting, install_static_routes
from repro.net.traffic import CBRSource, PoissonSource
from repro.net.tcp import TCPFlow
from repro.net.adversary import (
    CombinedCompromise,
    Compromise,
    ControlSuppressionAttack,
    DropAllAttack,
    DropFractionAttack,
    DropFlowAttack,
    QueueConditionalDropAttack,
    REDAverageConditionalDropAttack,
    SynDropAttack,
    ModifyAttack,
    ReorderAttack,
    DelayAttack,
    FabricateAttack,
    MisrouteAttack,
)

__all__ = [
    "Simulator",
    "Packet",
    "PacketKind",
    "MBPS",
    "Topology",
    "Link",
    "abilene",
    "chain",
    "diamond",
    "ebone_like",
    "grid",
    "ring",
    "sprintlink_like",
    "DropTailQueue",
    "REDParams",
    "REDQueue",
    "QueueEvent",
    "install_static_routes",
    "Router",
    "Network",
    "MonitorTap",
    "ForwardAction",
    "LinkStateRouting",
    "CBRSource",
    "PoissonSource",
    "TCPFlow",
    "Compromise",
    "CombinedCompromise",
    "ControlSuppressionAttack",
    "DropAllAttack",
    "DropFractionAttack",
    "DropFlowAttack",
    "QueueConditionalDropAttack",
    "REDAverageConditionalDropAttack",
    "SynDropAttack",
    "ModifyAttack",
    "ReorderAttack",
    "DelayAttack",
    "FabricateAttack",
    "MisrouteAttack",
]
