"""The per-host Polyraptor protocol endpoint: the simulator binding of the cores.

All session logic -- pull clocking, multicast aggregation, multi-source
partitioning, decode handling -- lives in the sans-IO cores of
:mod:`repro.protocol`.  The agent owns:

* the host's single **pull pacer**
  (:class:`~repro.protocol.pacer.PacedPullQueue`), shared by every session
  terminating at that host, which paces pull requests so the aggregate
  symbol arrival rate matches the host's link capacity;
* one :class:`~repro.protocol.driver.SessionDriver` per **sender session**
  (over a :class:`~repro.protocol.sender.SenderCore`) and per **receiver
  session** (over a :class:`~repro.protocol.receiver.ReceiverCore`), each
  bound to the simulator's clock and the host's NIC by
  :meth:`PolyraptorAgent.drive`; protocol state and counters read as
  ``session.core.<name>``.

Sessions are one-to-many (replication / multicast), many-to-one
(multi-source fetch) or one-to-one (plain unicast, a specialisation of both).
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.core.config import HEADER_BYTES, PolyraptorConfig
from repro.core.packets import (
    DoneAckPayload,
    DonePayload,
    PullPayload,
    RequestPayload,
    SymbolPayload,
)
from repro.network.host import Host
from repro.network.packet import Packet, PacketKind, make_control_packet
from repro.protocol.actions import KIND_DATA, SendPacket
from repro.protocol.driver import SessionDriver
from repro.protocol.pacer import PacedPullQueue
from repro.protocol.receiver import ReceiverCore
from repro.protocol.sender import SenderCore
from repro.rq.backend import CodecContext
from repro.rq.block import ObjectEncoder
from repro.sim.engine import Simulator

#: Protocol name packets are tagged with and hosts dispatch on.
POLYRAPTOR_PROTOCOL = "polyraptor"


class PolyraptorAgent:
    """One Polyraptor endpoint per host.

    The agent builds a protocol core per session, binds it to the simulator
    with :meth:`drive`, owns the host's single pull pacer (shared by every
    session terminating here) and demultiplexes arriving packets to the
    sessions.  A session started here fires its ``on_complete`` once:

    * push sessions (one-to-many): when the **last** receiver reports DONE;
    * fetch sessions (many-to-one): when the receiver decodes the object.
    """

    PROTOCOL = POLYRAPTOR_PROTOCOL

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        config: Optional[PolyraptorConfig] = None,
        codec_context: Optional[CodecContext] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.config = config or PolyraptorConfig()
        # One CodecContext is normally shared by every agent of a simulation
        # (the runner passes it in) so its counters cover the whole run; a
        # per-agent context is created only for standalone agents.
        self.codec = codec_context or CodecContext()
        # Pulls are paced at one symbol serialisation time of the host's link
        # and scheduled on the simulator's event heap.
        self.pacer = PacedPullQueue(self.config, host.link_rate_bps, sim, self._send)
        self._senders: dict[int, SessionDriver] = {}
        self._receivers: dict[int, SessionDriver] = {}
        #: object payloads available on this host for fetch serving (payload mode)
        self._stored_objects: dict[int, bytes] = {}
        host.register_protocol(POLYRAPTOR_PROTOCOL, self)

    def close(self) -> None:
        """Retire every session and the pull pacer (end of the run).

        The sessions' send handlers and the pacer's ``send`` are bound
        methods of this agent; closing them is what makes the agent's
        object graph acyclic.
        """
        for session in (*self._senders.values(), *self._receivers.values()):
            session.close()
        self.pacer.close()

    # The sim binding ------------------------------------------------------------

    def drive(
        self,
        core: Union[SenderCore, ReceiverCore],
        on_complete: Optional[Callable[[float], None]] = None,
    ) -> SessionDriver:
        """Bind a protocol core to this host's clock, NIC and pull pacer."""
        return SessionDriver(
            core, self.sim, self._send, pacer=self.pacer, on_complete=on_complete
        )

    def _send(self, action: SendPacket) -> None:
        """Frame one core ``SendPacket`` as a sim packet and hand it to the NIC."""
        payload = action.payload
        if action.kind == KIND_DATA:
            packet = Packet(
                protocol=POLYRAPTOR_PROTOCOL,
                src=self.host.node_id,
                dst=action.dest,
                multicast_group=action.multicast_group,
                size_bytes=action.size_bytes,
                kind=PacketKind.DATA,
                flow_id=payload.session_id,
                header_bytes=HEADER_BYTES,
                payload=payload,
                created_at=self.sim.now,
            )
        else:
            packet = make_control_packet(
                protocol=POLYRAPTOR_PROTOCOL,
                src=self.host.node_id,
                dst=action.dest,
                payload=payload,
                flow_id=payload.session_id,
                size_bytes=action.size_bytes,
                created_at=self.sim.now,
            )
        self.host.send(packet)

    # Session creation -----------------------------------------------------------

    def start_push_session(
        self,
        session_id: int,
        object_bytes: int,
        receiver_host_ids: list[int],
        multicast_group: Optional[int] = None,
        object_data: Optional[bytes] = None,
        on_complete: Optional[Callable[[float], None]] = None,
    ) -> SessionDriver:
        """Start a one-to-many (or unicast) push session from this host."""
        if session_id in self._senders:
            raise ValueError(f"session {session_id} already exists on {self.host.name}")
        return self._start_sender(
            session_id,
            object_bytes,
            receiver_host_ids,
            multicast_group=multicast_group,
            object_data=object_data,
            on_complete=on_complete,
        )

    def start_fetch_session(
        self,
        session_id: int,
        object_bytes: int,
        sender_host_ids: list[int],
        on_complete: Optional[Callable[[float], None]] = None,
    ) -> SessionDriver:
        """Start a many-to-one fetch session terminating at this host."""
        if session_id in self._receivers:
            raise ValueError(f"session {session_id} already exists on {self.host.name}")
        session = self._open_receiver(
            session_id, object_bytes, sender_host_ids, on_complete=on_complete
        )
        session.start_fetch()
        return session

    def store_object(self, session_id: int, data: bytes) -> None:
        """Make object bytes available for serving a fetch session (payload mode)."""
        self._stored_objects[session_id] = data

    def _start_sender(
        self,
        session_id: int,
        object_bytes: int,
        receiver_host_ids: list[int],
        multicast_group: Optional[int] = None,
        sender_index: int = 0,
        num_senders: int = 1,
        object_data: Optional[bytes] = None,
        on_complete: Optional[Callable[[float], None]] = None,
    ) -> SessionDriver:
        encoder = None
        if self.config.carry_payload and object_data is not None:
            encoder = ObjectEncoder(object_data, self.config.symbol_size_bytes,
                                    self.config.max_symbols_per_block, self.codec)
        core = SenderCore(
            config=self.config,
            session_id=session_id,
            object_bytes=object_bytes,
            receiver_host_ids=receiver_host_ids,
            local_host=self.host.node_id,
            multicast_group=multicast_group,
            sender_index=sender_index,
            num_senders=num_senders,
            encoder=encoder,
        )
        session = self._senders[session_id] = self.drive(core, on_complete)
        session.start()
        return session

    def _open_receiver(
        self,
        session_id: int,
        object_bytes: int,
        expected_senders: list[int],
        on_complete: Optional[Callable[[float], None]] = None,
    ) -> SessionDriver:
        core = ReceiverCore(
            config=self.config,
            session_id=session_id,
            object_bytes=object_bytes,
            local_host=self.host.node_id,
            expected_senders=expected_senders,
            codec=self.codec,
            now=self.sim.now,
        )
        session = self._receivers[session_id] = self.drive(core, on_complete)
        return session

    # Lookup ------------------------------------------------------------------------

    def sender_session(self, session_id: int) -> SessionDriver:
        """Return a sender session hosted on this agent."""
        return self._senders[session_id]

    def receiver_session(self, session_id: int) -> SessionDriver:
        """Return a receiver session hosted on this agent."""
        return self._receivers[session_id]

    def has_receiver_session(self, session_id: int) -> bool:
        """Whether a receiver session exists for the given id."""
        return session_id in self._receivers

    # Packet handling ------------------------------------------------------------------

    def handle_packet(self, packet: Packet) -> None:
        """Dispatch one arriving Polyraptor packet."""
        payload = packet.payload
        if isinstance(payload, SymbolPayload):
            self._on_symbol_packet(payload, packet)
        elif isinstance(payload, PullPayload):
            session = self._senders.get(payload.session_id)
            if session is not None:
                session.on_pull(payload)
        elif isinstance(payload, RequestPayload):
            self._on_request(payload)
        elif isinstance(payload, DonePayload):
            session = self._senders.get(payload.session_id)
            if session is not None:
                session.on_done(payload)
        elif isinstance(payload, DoneAckPayload):
            session = self._receivers.get(payload.session_id)
            if session is not None:
                session.on_done_ack(payload)
        else:
            raise TypeError(f"unexpected Polyraptor payload: {payload!r}")

    def _on_symbol_packet(self, payload: SymbolPayload, packet: Packet) -> None:
        session = self._receivers.get(payload.session_id)
        if session is None:
            # Push sessions create receiver state on first contact.
            session = self._open_receiver(
                payload.session_id, payload.object_bytes, [payload.sender_host]
            )
        session.on_symbol(payload, packet.trimmed, multicast=packet.is_multicast)

    def _on_request(self, request: RequestPayload) -> None:
        if request.session_id in self._senders:
            return
        self._start_sender(
            request.session_id,
            request.object_bytes,
            [request.receiver_host],
            sender_index=request.sender_index,
            num_senders=request.num_senders,
            object_data=self._stored_objects.get(request.session_id),
        )
