"""The transport-agnostic Polyraptor receiver state machine.

A receiver session:

* tracks, per source block, which encoding symbols have arrived (or actually
  feeds them to a RaptorQ decoder in payload mode);
* requests one pull for every **full or trimmed** symbol that arrives while
  the session is incomplete -- a trimmed header still tells the receiver
  that a symbol was sent (and lost), so the pull keeps the self-clocking
  loop running without ever re-requesting the specific lost symbol;
* declares a block complete once it holds all K source symbols, or any
  K + overhead distinct symbols otherwise;
* when every block is complete, sends DONE to every sender, cancels pending
  pulls, and reports completion.

For many-to-one (multi-source) sessions the receiver is the initiator: it
sends a REQUEST to each replica holder, then pulls from whichever sender's
symbols arrive -- a fast sender's symbols arrive more often, so it receives
more pulls, which is the paper's "natural load balancing" mechanism.

This core is pure: inputs arrive through :meth:`ReceiverCore.on_symbol`,
:meth:`ReceiverCore.on_done_ack` and :meth:`ReceiverCore.on_timer`, and all
side effects leave as :mod:`~repro.protocol.actions`.  Pulls are *deferred*:
the core emits :class:`~repro.protocol.actions.EnqueuePull` and the driver's
pacer calls :meth:`ReceiverCore.build_pull` back at send time, so the block
hint always reflects the latest state.  Two named timers exist: ``"stall"``
(re-issue pulls when nothing arrives) and ``"done"`` (retransmit
unacknowledged DONEs with exponential backoff).
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import (
    DECODE_OVERHEAD_SYMBOLS,
    DONE_RETRY_LIMIT,
    HEADER_BYTES,
    PolyraptorConfig,
)
from repro.core.packets import (
    DoneAckPayload,
    DonePayload,
    PullPayload,
    RequestPayload,
    SymbolPayload,
)
from repro.protocol.actions import (
    KIND_CONTROL,
    ActionEmitter,
    CancelPulls,
    EnqueuePull,
    SendPacket,
    SessionCompleted,
    SetTimer,
    StopTimer,
)
from repro.rq.block import EncodedSymbol, ObjectDecoder, partition_object
from repro.rq.decoder import DecodeFailure


class ReceiverCore(ActionEmitter):
    """Receiver-side protocol state for one Polyraptor session."""

    #: re-issues pulls when nothing has arrived for a stall timeout
    TIMER_STALL = "stall"
    #: retransmits unacknowledged DONEs with exponential backoff
    TIMER_DONE = "done"
    #: every timer name this core may arm; the driver creates one timer each
    TIMERS = (TIMER_STALL, TIMER_DONE)

    def __init__(
        self,
        config: PolyraptorConfig,
        session_id: int,
        object_bytes: int,
        local_host: int,
        expected_senders: Optional[list[int]] = None,
        codec=None,
        now: float = 0.0,
    ) -> None:
        super().__init__()
        self.config = config
        self.session_id = session_id
        self.local_host = local_host
        self.object_bytes = object_bytes
        self.expected_senders = list(expected_senders) if expected_senders else []

        self.oti = partition_object(
            object_bytes, self.config.symbol_size_bytes, self.config.max_symbols_per_block
        )
        self._received: list[set[int]] = [set() for _ in range(self.oti.num_source_blocks)]
        #: per block, how many of the received ESIs are source symbols (esi < K)
        self._sources_held: list[int] = [0] * self.oti.num_source_blocks
        self._complete_blocks: set[int] = set()
        self._known_senders: set[int] = set(self.expected_senders)
        self._stall_sender_cursor = 0
        self._pull_sequence = 0

        self._decoder: Optional[ObjectDecoder] = None
        if self.config.carry_payload:
            self._decoder = ObjectDecoder(self.oti, context=codec)
        self.received_data: Optional[bytes] = None

        self.completed = False
        self.completion_time: Optional[float] = None
        self.start_time = now
        self.symbols_received = 0
        self.trimmed_received = 0
        self.duplicate_symbols = 0
        self.stall_events = 0
        self.done_retries = 0
        self._done_acked: set[int] = set()

        #: ``pull_on_gap`` mode: highest symbol sequence seen per (sender,
        #: stream), where stream is ``None`` for the sender's multicast
        #: emission stream and this host's id for symbols the sender unicast
        #: to us -- the two streams carry independent sequence counters.
        self._last_sequence: dict[tuple[int, Optional[int]], int] = {}

        self._emit(SetTimer(self.TIMER_STALL, self.config.stall_timeout_s))

    # Public state -----------------------------------------------------------------

    @property
    def done_fully_acked(self) -> bool:
        """True once every known or expected sender has acknowledged our DONE.

        Before completion this is simply "no sender still owes an ack" --
        trivially True when no senders are known yet -- so callers should
        combine it with :attr:`completed`; a completed session uses it to
        decide whether DONE retransmissions can stop (and a client endpoint
        whether it may tear its socket down without orphaning the server).
        """
        senders = self._known_senders | set(self.expected_senders)
        return not (senders - self._done_acked)

    # Session initiation -----------------------------------------------------------

    def start_fetch(self) -> None:
        """Initiate a many-to-one fetch: send a REQUEST to every replica holder."""
        if not self.expected_senders:
            raise ValueError("a fetch session needs at least one sender")
        num_senders = len(self.expected_senders)
        for index, sender in enumerate(self.expected_senders):
            request = RequestPayload(
                session_id=self.session_id,
                receiver_host=self.local_host,
                object_bytes=self.object_bytes,
                sender_index=index,
                num_senders=num_senders,
            )
            self._emit(
                SendPacket(
                    payload=request,
                    kind=KIND_CONTROL,
                    size_bytes=HEADER_BYTES,
                    dest=sender,
                )
            )

    # Symbol handling ----------------------------------------------------------------

    def on_symbol(
        self,
        payload: SymbolPayload,
        trimmed: bool,
        multicast: bool = False,
        now: float = 0.0,
    ) -> None:
        """Process one arriving symbol packet (full or trimmed).

        ``multicast`` says whether it travelled the sender's multicast
        stream (its sequence counter is separate from the unicast one).
        """
        if self.completed:
            return
        self._known_senders.add(payload.sender_host)
        self._emit(SetTimer(self.TIMER_STALL, self.config.stall_timeout_s))
        missing = self._sequence_gap(payload, multicast) if self.config.pull_on_gap else 0

        if trimmed:
            # The payload was cut by a switch; the header alone still triggers
            # a pull -- the lost symbol itself is never re-requested.
            self.trimmed_received += 1
        else:
            self._record_symbol(payload)
            if self._session_complete():
                self._finish(now)
                return
        self._request_more(payload.sender_host)
        if missing > 0:
            # Real-network mode: a sequence gap means symbols vanished with
            # no trimmed header to keep the pull clock running, so replace
            # the lost arrivals' pulls directly (the sim's trimming fabric
            # never needs this; it is off by default there).
            for _ in range(min(missing, self.config.initial_window_symbols)):
                self._request_more(payload.sender_host)

    def _sequence_gap(self, payload: SymbolPayload, multicast: bool) -> int:
        """How many symbols of this arrival's stream it newly exposed as missing.

        First contact and late (reordered) arrivals expose none; an arrival
        ahead of the stream's highest sequence exposes the skipped ones.
        """
        key = (payload.sender_host, None if multicast else self.local_host)
        last = self._last_sequence.get(key)
        if last is not None and payload.sequence <= last:
            return 0
        self._last_sequence[key] = payload.sequence
        return 0 if last is None else payload.sequence - last - 1

    def _record_symbol(self, payload: SymbolPayload) -> None:
        block = payload.block_number
        if block in self._complete_blocks:
            self.duplicate_symbols += 1
            return
        received = self._received[block]
        if payload.esi in received:
            self.duplicate_symbols += 1
            return
        received.add(payload.esi)
        if payload.esi < self.oti.block_symbol_count(block):
            self._sources_held[block] += 1
        self.symbols_received += 1
        if self._decoder is not None and payload.data is not None:
            self._decoder.add_symbol(
                EncodedSymbol(block_number=block, esi=payload.esi, data=payload.data)
            )
        if self._block_complete(block):
            self._complete_blocks.add(block)

    def _block_complete(self, block: int) -> bool:
        k = self.oti.block_symbol_count(block)
        if self._sources_held[block] == k:
            return True
        return len(self._received[block]) >= k + DECODE_OVERHEAD_SYMBOLS

    def _session_complete(self) -> bool:
        return len(self._complete_blocks) == self.oti.num_source_blocks

    # Pull generation -------------------------------------------------------------------

    def lowest_incomplete_block(self) -> Optional[int]:
        """The first block that still needs symbols (None when all complete)."""
        for block in range(self.oti.num_source_blocks):
            if block not in self._complete_blocks:
                return block
        return None

    def _request_more(self, target_sender: int) -> None:
        self._emit(EnqueuePull(self.session_id, target_sender))

    def build_pull(self, target_sender: int) -> Optional[PullPayload]:
        """Build one pull toward a sender, reflecting the state *right now*.

        Called back by the driver's pacer at send time (pulls are enqueued
        as deferred :class:`EnqueuePull` actions); returns ``None`` when the
        session completed in the meantime, in which case the pacer discards
        the slot.
        """
        if self.completed:
            return None
        self._pull_sequence += 1
        return PullPayload(
            session_id=self.session_id,
            receiver_host=self.local_host,
            pull_sequence=self._pull_sequence,
            block_hint=self.lowest_incomplete_block(),
        )

    # Stall recovery ---------------------------------------------------------------------

    def on_timer(self, name: str, now: float) -> None:
        """Handle the expiry of one of this session's named timers."""
        if name == self.TIMER_STALL:
            self._on_stall(now)
        elif name == self.TIMER_DONE:
            self._retry_done(now)
        else:  # pragma: no cover - drivers only route the two known names
            raise ValueError(f"unknown receiver timer {name!r}")

    def _on_stall(self, now: float) -> None:
        """Nothing arrived for a while: re-issue pulls so the session cannot deadlock."""
        if self.completed:
            return
        self.stall_events += 1
        senders = sorted(self._known_senders) or sorted(self.expected_senders)
        if senders:
            incomplete_blocks = [
                block
                for block in range(self.oti.num_source_blocks)
                if block not in self._complete_blocks
            ]
            pulls_to_issue = max(1, min(len(incomplete_blocks), 4))
            for _ in range(pulls_to_issue):
                target = senders[self._stall_sender_cursor % len(senders)]
                self._stall_sender_cursor += 1
                self._request_more(target)
        self._emit(SetTimer(self.TIMER_STALL, self.config.stall_timeout_s))

    # Completion --------------------------------------------------------------------------

    def _finish(self, now: float) -> None:
        if self.completed:
            return
        if self._decoder is not None:
            try:
                self.received_data = self._decoder.decode()
            except DecodeFailure:
                # Extremely rare: the collected overhead was not sufficient.
                # Keep the session open and pull a few more symbols.
                for block in list(self._complete_blocks):
                    if not self._decoder.block_decoder(block).is_decoded:
                        self._complete_blocks.discard(block)
                for sender in sorted(self._known_senders) or [0]:
                    self._request_more(sender)
                return
        self.completed = True
        self.completion_time = now
        self._emit(StopTimer(self.TIMER_STALL))
        self._emit(CancelPulls(self.session_id))
        self._broadcast_done()
        self._emit(SetTimer(self.TIMER_DONE, self.config.stall_timeout_s))
        self._emit(SessionCompleted(self.session_id, now))

    def _broadcast_done(self) -> None:
        """Send DONE to every sender that has not acknowledged one yet."""
        unacked = (self._known_senders | set(self.expected_senders)) - self._done_acked
        for sender in sorted(unacked):
            done = DonePayload(session_id=self.session_id, receiver_host=self.local_host)
            self._emit(
                SendPacket(
                    payload=done,
                    kind=KIND_CONTROL,
                    size_bytes=HEADER_BYTES,
                    dest=sender,
                )
            )

    def on_done_ack(self, ack: DoneAckPayload) -> None:
        """A sender confirmed our DONE; stop retrying once every sender has."""
        self._done_acked.add(ack.sender_host)
        if self.done_fully_acked:
            self._emit(StopTimer(self.TIMER_DONE))

    def _retry_done(self, now: float) -> None:
        """Re-send the unacknowledged DONE with exponential backoff.

        A DONE lost to the fabric (a fault-downed link, a trimming overflow)
        would leave the sender pull-clocked on a receiver that will never
        pull again.  Acks cancel the retries in the healthy case; the
        ``DONE_RETRY_LIMIT`` cap keeps the event heap finite when a sender
        stays unreachable to the end of the run.
        """
        self.done_retries += 1
        self._broadcast_done()
        if self.done_retries < DONE_RETRY_LIMIT:
            self._emit(
                SetTimer(
                    self.TIMER_DONE,
                    self.config.stall_timeout_s * (2 ** self.done_retries),
                )
            )
