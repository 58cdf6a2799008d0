"""A TCP-Reno-like transport flow.

Chapter 6's evaluation rides on TCP dynamics: AIMD congestion control
drives router queues into overflow, producing the *benign* loss process
that Protocol χ must predict, and TCP's sensitivity to targeted loss
(SYN drops, timeout attacks) is what makes sub-threshold malicious
dropping damaging (§6.1.1).  This implementation covers the mechanisms
those experiments need:

* three-way-handshake SYN with 3 s initial retransmission timeout,
  exponential backoff (the disproportionate-SYN-loss effect);
* slow start / congestion avoidance with an explicit ssthresh;
* duplicate-ACK fast retransmit (3 dupacks) with window halving;
* retransmission timeout with Jacobson/Karels RTT estimation and
  exponential backoff, cwnd reset to 1.

It is not a byte-exact TCP: segments are fixed-size (one MSS), ACKs are
per-segment and cumulative.  That level of fidelity matches what the
paper's figures depend on (loss counts, throughput collapse, connection
establishment latency).
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.net.packet import Packet, PacketKind
from repro.net.router import Network

MSS = 1000
ACK_SIZE = 40
SYN_SIZE = 40
INITIAL_SYN_RTO = 3.0
MIN_RTO = 0.2
MAX_RTO = 60.0


class TCPFlow:
    """One unidirectional bulk-transfer TCP connection.

    ``total_packets`` bounds the transfer (None = run until sim ends).
    Statistics are exposed as plain attributes for the experiment harness.
    """

    def __init__(
        self,
        network: Network,
        src: str,
        dst: str,
        flow_id: str,
        total_packets: Optional[int] = None,
        start: float = 0.0,
        mss: int = MSS,
        init_ssthresh: float = 64.0,
        max_cwnd: float = 256.0,
    ) -> None:
        if src == dst:
            raise ValueError("TCP flow endpoints must differ")
        self.network = network
        self.src = src
        self.dst = dst
        self.flow_id = flow_id
        self.total_packets = total_packets
        self.mss = mss

        # -- sender state
        self.cwnd = 1.0
        self.ssthresh = init_ssthresh
        self.max_cwnd = max_cwnd
        self.send_base = 0  # lowest unacked seq
        self.next_seq = 0
        self.dupacks = 0
        self._recover = 0  # NewReno recovery point (highest seq at loss)
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = 1.0
        self._rto_event = None
        self._send_times: Dict[int, float] = {}
        self._retransmitted: Set[int] = set()
        self.established = False
        self.connect_started_at: Optional[float] = None
        self.established_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self._syn_rto = INITIAL_SYN_RTO
        self._syn_event = None
        self.syn_retries = 0

        # -- receiver state
        self._recv_next = 0  # next in-order seq expected
        self._out_of_order: Set[int] = set()

        # -- statistics
        self.data_sent = 0  # segments transmitted (incl. retransmits)
        self.retransmits = 0
        self.timeouts = 0
        self.fast_retransmits = 0
        self.acked = 0  # segments cumulatively acknowledged
        self.delivered = 0  # segments that arrived at the receiver

        network.routers[src].register_flow(flow_id, self._sender_receive)
        network.routers[dst].register_flow(flow_id, self._receiver_receive)
        network.sim.schedule_at(start, self._connect)

    # -- connection establishment -------------------------------------------
    def _connect(self) -> None:
        self.connect_started_at = self.network.sim.now
        self._send_syn()

    def _send_syn(self) -> None:
        if self.established:
            return
        syn = Packet(src=self.src, dst=self.dst, size=SYN_SIZE,
                     kind=PacketKind.SYN, flow_id=self.flow_id, seq=0,
                     payload=b"SYN", uid=next(self.network.packet_ids))
        self.network.routers[self.src].originate(syn)
        self._syn_event = self.network.sim.schedule(
            self._syn_rto, self._syn_timeout
        )

    def _syn_timeout(self) -> None:
        if self.established:
            return
        self.syn_retries += 1
        self._syn_rto = min(self._syn_rto * 2, MAX_RTO)
        self._send_syn()

    # -- receiver side --------------------------------------------------------
    def _receiver_receive(self, packet: Packet, now: float) -> None:
        if packet.kind == PacketKind.SYN:
            synack = Packet(src=self.dst, dst=self.src, size=SYN_SIZE,
                            kind=PacketKind.SYN_ACK, flow_id=self.flow_id,
                            seq=0, payload=b"SYNACK",
                            uid=next(self.network.packet_ids))
            self.network.routers[self.dst].originate(synack)
            return
        if packet.kind != PacketKind.DATA:
            return
        self.delivered += 1
        seq = packet.seq
        if seq == self._recv_next:
            self._recv_next += 1
            while self._recv_next in self._out_of_order:
                self._out_of_order.discard(self._recv_next)
                self._recv_next += 1
        elif seq > self._recv_next:
            self._out_of_order.add(seq)
        ack = Packet(src=self.dst, dst=self.src, size=ACK_SIZE,
                     kind=PacketKind.ACK, flow_id=self.flow_id,
                     seq=self._recv_next, payload=b"ACK",
                     uid=next(self.network.packet_ids))
        self.network.routers[self.dst].originate(ack)

    # -- sender side -----------------------------------------------------------
    def _sender_receive(self, packet: Packet, now: float) -> None:
        if packet.kind == PacketKind.SYN_ACK:
            if not self.established:
                self.established = True
                self.established_at = now
                if self._syn_event is not None:
                    self.network.sim.cancel(self._syn_event)
                self._try_send()
            return
        if packet.kind != PacketKind.ACK:
            return
        ackno = packet.seq
        if ackno > self.send_base:
            newly = ackno - self.send_base
            self.acked += newly
            # RTT sample from an unretransmitted, timed segment (Karn).
            sample_seq = ackno - 1
            sent_at = self._send_times.get(sample_seq)
            if sent_at is not None and sample_seq not in self._retransmitted:
                self._update_rtt(now - sent_at)
            for seq in range(self.send_base, ackno):
                self._send_times.pop(seq, None)
            self.send_base = ackno
            self.dupacks = 0
            if self.cwnd < self.ssthresh:
                self.cwnd = min(self.cwnd + newly, self.max_cwnd)  # slow start
            else:
                self.cwnd = min(self.cwnd + newly / self.cwnd, self.max_cwnd)
            if ackno < self._recover and self._flight() > 0:
                # NewReno partial ACK: the next hole is at the new
                # send_base; retransmit it immediately rather than
                # stalling a full (backed-off) RTO per hole.
                self._transmit(self.send_base, retransmission=True)
            self._restart_rto()
            if (self.total_packets is not None
                    and self.send_base >= self.total_packets
                    and self.completed_at is None):
                self.completed_at = now
                if self._rto_event is not None:
                    self.network.sim.cancel(self._rto_event)
            self._try_send()
        elif ackno == self.send_base and self._flight() > 0:
            self.dupacks += 1
            if self.dupacks == 3:
                self._fast_retransmit()

    def _update_rtt(self, sample: float) -> None:
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = max(MIN_RTO, min(MAX_RTO, self.srtt + 4 * self.rttvar))

    def _flight(self) -> int:
        return self.next_seq - self.send_base

    def _try_send(self) -> None:
        if not self.established or self.completed_at is not None:
            return
        limit = self.total_packets
        while self._flight() < int(self.cwnd):
            if limit is not None and self.next_seq >= limit:
                break
            self._transmit(self.next_seq)
            self.next_seq += 1
        if self._rto_event is None and self._flight() > 0:
            self._restart_rto()

    def _transmit(self, seq: int, retransmission: bool = False) -> None:
        now = self.network.sim.now
        packet = Packet(src=self.src, dst=self.dst, size=self.mss,
                        kind=PacketKind.DATA, flow_id=self.flow_id, seq=seq,
                        payload=f"{self.flow_id}:{seq}".encode(),
                        uid=next(self.network.packet_ids))
        self.network.routers[self.src].originate(packet)
        self.data_sent += 1
        if retransmission:
            self.retransmits += 1
            self._retransmitted.add(seq)
        else:
            self._send_times[seq] = now

    def _fast_retransmit(self) -> None:
        self.fast_retransmits += 1
        self._recover = self.next_seq
        self.ssthresh = max(self._flight() / 2.0, 2.0)
        self.cwnd = self.ssthresh
        self._transmit(self.send_base, retransmission=True)
        self._restart_rto()

    def _restart_rto(self) -> None:
        if self._rto_event is not None:
            self.network.sim.cancel(self._rto_event)
        self._rto_event = None
        if self._flight() <= 0 and self.completed_at is not None:
            return
        self._rto_event = self.network.sim.schedule(self.rto, self._rto_fire)

    def _rto_fire(self) -> None:
        self._rto_event = None
        if self._flight() <= 0 or self.completed_at is not None:
            return
        self.timeouts += 1
        self._recover = self.next_seq
        self.ssthresh = max(self._flight() / 2.0, 2.0)
        self.cwnd = 1.0
        self.rto = min(self.rto * 2, MAX_RTO)
        self.dupacks = 0
        self._transmit(self.send_base, retransmission=True)
        self._rto_event = self.network.sim.schedule(self.rto, self._rto_fire)

    # -- reporting --------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.completed_at is not None

    def connection_setup_time(self) -> Optional[float]:
        if self.established_at is None or self.connect_started_at is None:
            return None
        return self.established_at - self.connect_started_at

    def goodput_pps(self, until: Optional[float] = None) -> float:
        """Cumulatively acknowledged segments per second of established time."""
        if self.established_at is None:
            return 0.0
        end = self.completed_at or until or self.network.sim.now
        elapsed = max(1e-9, end - self.established_at)
        return self.acked / elapsed
