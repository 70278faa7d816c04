"""Per-host TCP endpoint: demultiplexes segments to senders and receivers."""

from __future__ import annotations

from typing import Callable, Optional

from repro.network.host import Host
from repro.network.packet import Packet
from repro.sim.engine import Simulator
from repro.transport.tcp.config import TCP_PROTOCOL, TcpConfig
from repro.transport.tcp.receiver import TcpReceiver
from repro.transport.tcp.segments import TcpSegment
from repro.transport.tcp.sender import TcpSender


class TcpAgent:
    """The TCP protocol endpoint installed on a host.

    One agent per host handles every TCP flow that host participates in,
    creating sender state when :meth:`start_flow` is called and receiver state
    lazily when the first data segment of an unknown flow arrives.
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        config: Optional[TcpConfig] = None,
    ) -> None:
        self._sim = sim
        self.host = host
        self.config = config or TcpConfig()
        self._senders: dict[int, TcpSender] = {}
        self._receivers: dict[int, TcpReceiver] = {}
        host.register_protocol(TCP_PROTOCOL, self)

    def close(self) -> None:
        """Retire every flow (end of the run).

        Each sender's retransmit timer and completion callback lead back to
        the sender and to this agent; receivers hold no callbacks.
        """
        for sender in self._senders.values():
            sender.close()

    # Flow management -------------------------------------------------------------

    def start_flow(
        self,
        flow_id: int,
        dst_host_id: int,
        num_bytes: int,
        on_complete: Optional[Callable[[float], None]] = None,
    ) -> TcpSender:
        """Start sending ``num_bytes`` to ``dst_host_id`` as flow ``flow_id``.

        ``on_complete(now)`` fires once, when the last byte is acknowledged.
        """
        if flow_id in self._senders:
            raise ValueError(f"flow {flow_id} already started on {self.host.name}")
        sender = TcpSender(
            self._sim,
            self.host,
            self.config,
            flow_id=flow_id,
            dst_host_id=dst_host_id,
            total_bytes=num_bytes,
            on_complete=on_complete,
        )
        self._senders[flow_id] = sender
        sender.start()
        return sender

    def sender(self, flow_id: int) -> TcpSender:
        """Return the sender state of a flow started on this host."""
        return self._senders[flow_id]

    def receiver(self, flow_id: int) -> TcpReceiver:
        """Return the receiver state of a flow terminating on this host."""
        return self._receivers[flow_id]

    @property
    def all_senders(self) -> list[TcpSender]:
        """Every flow sender on this host (stats collection)."""
        return list(self._senders.values())

    @property
    def all_receivers(self) -> list[TcpReceiver]:
        """Every flow receiver on this host (stats collection)."""
        return list(self._receivers.values())

    # Packet handling --------------------------------------------------------------

    def handle_packet(self, packet: Packet) -> None:
        """Dispatch an arriving TCP packet to the right flow state machine."""
        if packet.trimmed:
            # A trimmed data packet carries no payload bytes; standard TCP has
            # no notion of trimming, so the loss is discovered via duplicate
            # ACKs or a timeout exactly as if the packet had been dropped.
            return
        segment = packet.payload
        if not isinstance(segment, TcpSegment):
            raise TypeError(f"unexpected TCP payload: {segment!r}")
        if segment.ack:
            sender = self._senders.get(segment.flow_id)
            if sender is not None:
                sender.on_ack(segment.ack_seq, ece=segment.ece)
            return
        receiver = self._receivers.get(segment.flow_id)
        if receiver is None:
            receiver = TcpReceiver(
                self._sim,
                self.host,
                self.config,
                flow_id=segment.flow_id,
                peer_host_id=segment.src_host,
            )
            self._receivers[segment.flow_id] = receiver
        receiver.on_data(segment, ce=packet.ce)
