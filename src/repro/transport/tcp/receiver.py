"""TCP receiver: cumulative ACK generation and in-order reassembly tracking."""

from __future__ import annotations

from typing import Callable, Optional

from repro.network.host import Host
from repro.network.packet import make_control_packet
from repro.sim.engine import Simulator
from repro.transport.tcp.config import TCP_PROTOCOL
from repro.transport.tcp.segments import TcpSegment


class TcpReceiver:
    """Receiver-side state for one TCP flow: reassembly plus cumulative ACKs."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        flow_id: int,
        peer_host_id: int,
        expected_bytes: Optional[int] = None,
        on_complete: Optional[Callable[[float], None]] = None,
    ) -> None:
        self._sim = sim
        self._host = host
        self.flow_id = flow_id
        self.peer_host_id = peer_host_id
        self.expected_bytes = expected_bytes
        self._on_complete = on_complete

        self.cumulative_ack = 0
        self._out_of_order: dict[int, int] = {}
        self.received_segments = 0
        self.duplicate_segments = 0
        self.delivered_bytes = 0
        self.ecn_echoes = 0
        self.completed = False

    def on_data(self, segment: TcpSegment, ce: bool = False) -> None:
        """Process one data segment and emit a cumulative ACK.

        ``ce`` is the CE bit of the packet that carried the segment; it is
        echoed on the generated ACK (per-packet, DCTCP-style) so the sender
        sees congestion marks one RTT after the marking queue set them.
        """
        self.received_segments += 1
        if segment.end_seq <= self.cumulative_ack:
            self.duplicate_segments += 1
        elif segment.seq <= self.cumulative_ack < segment.end_seq:
            self.cumulative_ack = segment.end_seq
            self._drain_out_of_order()
        else:
            self._out_of_order[segment.seq] = segment.end_seq
        self._send_ack(ece=ce)
        self._check_completion()

    def _drain_out_of_order(self) -> None:
        advanced = True
        while advanced:
            advanced = False
            for seq in sorted(self._out_of_order):
                end = self._out_of_order[seq]
                if seq <= self.cumulative_ack:
                    del self._out_of_order[seq]
                    if end > self.cumulative_ack:
                        self.cumulative_ack = end
                    advanced = True
                    break

    def _send_ack(self, ece: bool = False) -> None:
        if ece:
            self.ecn_echoes += 1
        ack = TcpSegment(
            flow_id=self.flow_id,
            src_host=self._host.node_id,
            dst_host=self.peer_host_id,
            ack=True,
            ack_seq=self.cumulative_ack,
            ece=ece,
        )
        packet = make_control_packet(
            protocol=TCP_PROTOCOL,
            src=self._host.node_id,
            dst=self.peer_host_id,
            payload=ack,
            flow_id=self.flow_id,
            created_at=self._sim.now,
        )
        self._host.send(packet)

    def _check_completion(self) -> None:
        if self.completed or self.expected_bytes is None:
            return
        if self.cumulative_ack >= self.expected_bytes:
            self.completed = True
            self.delivered_bytes = self.cumulative_ack
            if self._on_complete is not None:
                self._on_complete(self._sim.now)
