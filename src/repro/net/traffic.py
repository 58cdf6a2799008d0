"""Application-level traffic sources.

Sources originate packets at a (terminal) router and count deliveries at
the sink router, so experiments can measure end-to-end loss and goodput.
All randomness is seeded for reproducibility.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.net.packet import Packet, PacketKind
from repro.net.router import Network


class _SourceBase:
    """Shared plumbing: registration at the sink, delivery accounting."""

    def __init__(
        self,
        network: Network,
        src: str,
        dst: str,
        flow_id: str,
        packet_size: int = 1000,
    ) -> None:
        if src not in network.routers or dst not in network.routers:
            raise KeyError(f"unknown router in flow {src}->{dst}")
        self.network = network
        self.src = src
        self.dst = dst
        self.flow_id = flow_id
        self.packet_size = packet_size
        self.sent = 0
        self.received = 0
        self.delivery_times: List[float] = []
        self._stopped = False
        network.routers[dst].register_flow(flow_id, self._on_deliver)

    def _on_deliver(self, packet: Packet, time: float) -> None:
        self.received += 1
        self.delivery_times.append(time)

    def stop(self) -> None:
        self._stopped = True

    @property
    def loss_count(self) -> int:
        return self.sent - self.received

    def _emit(self, seq: int) -> None:
        packet = Packet(
            src=self.src,
            dst=self.dst,
            size=self.packet_size,
            kind=PacketKind.DATA,
            flow_id=self.flow_id,
            seq=seq,
            payload=f"{self.flow_id}:{seq}".encode(),
            uid=next(self.network.packet_ids),
        )
        self.network.routers[self.src].originate(packet)
        self.sent += 1


class CBRSource(_SourceBase):
    """Constant bit rate: one packet every ``interval`` seconds."""

    def __init__(
        self,
        network: Network,
        src: str,
        dst: str,
        flow_id: str,
        rate_bps: float,
        packet_size: int = 1000,
        start: float = 0.0,
        duration: Optional[float] = None,
    ) -> None:
        super().__init__(network, src, dst, flow_id, packet_size)
        self.interval = packet_size * 8.0 / rate_bps
        self.end_time = None if duration is None else start + duration
        network.sim.schedule_at(start, self._tick, 0)

    def _tick(self, seq: int) -> None:
        if self._stopped:
            return
        now = self.network.sim.now
        if self.end_time is not None and now >= self.end_time:
            return
        self._emit(seq)
        self.network.sim.schedule(self.interval, self._tick, seq + 1)


class PoissonSource(_SourceBase):
    """Poisson packet arrivals at a mean rate (packets/second)."""

    def __init__(
        self,
        network: Network,
        src: str,
        dst: str,
        flow_id: str,
        rate_pps: float,
        packet_size: int = 1000,
        start: float = 0.0,
        duration: Optional[float] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(network, src, dst, flow_id, packet_size)
        if rate_pps <= 0:
            raise ValueError("rate must be positive")
        self.rate_pps = rate_pps
        self.rng = random.Random(seed)
        self.end_time = None if duration is None else start + duration
        network.sim.schedule_at(
            start + self.rng.expovariate(rate_pps), self._tick, 0
        )

    def _tick(self, seq: int) -> None:
        if self._stopped:
            return
        now = self.network.sim.now
        if self.end_time is not None and now >= self.end_time:
            return
        self._emit(seq)
        self.network.sim.schedule(
            self.rng.expovariate(self.rate_pps), self._tick, seq + 1
        )

