"""The transport-agnostic Polyraptor sender state machine.

A sender session pushes an initial window of encoding symbols at line rate
and afterwards emits exactly one new symbol per pull request ("pull
clocking").  Three shapes exist, all handled by this class:

* **unicast push** -- one receiver, symbols sent as unicast data packets;
* **multicast push** -- several receivers reached through a multicast group;
  the sender aggregates pulls and multicasts a new symbol only after every
  active receiver has pulled;
* **fetch serving** -- the sender is one of N replica holders answering a
  receiver-initiated multi-source fetch; it serves the symbol-space partition
  assigned to it (``sender_index`` / ``num_senders``), so symbols from
  different senders never collide.

This core is pure: inputs arrive through :meth:`SenderCore.start`,
:meth:`SenderCore.on_pull`, :meth:`SenderCore.on_done` and
:meth:`SenderCore.on_timer` (each stamped with the driver's clock), and all
side effects leave as :mod:`~repro.protocol.actions`.  One named timer
exists: ``"startup"`` (receiver-liveness probing with exponential backoff).
The sender has no rate control of its own: the initial window leaves as one
burst and every later symbol answers a pull, so the receivers' pull pacers
set the rate.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional

from repro.core.config import HEADER_BYTES, STARTUP_RETRY_LIMIT, PolyraptorConfig
from repro.core.packets import DoneAckPayload, DonePayload, PullPayload, SymbolPayload
from repro.protocol.actions import (
    KIND_CONTROL,
    KIND_DATA,
    ActionEmitter,
    SendPacket,
    SessionCompleted,
    SetTimer,
    StopTimer,
)
from repro.rq.block import ObjectEncoder, partition_object


class SenderCore(ActionEmitter):
    """Sender-side protocol state for one Polyraptor session."""

    #: probes receivers that have never been heard from (exponential backoff)
    TIMER_STARTUP = "startup"
    #: every timer name this core may arm; the driver creates one timer each
    TIMERS = (TIMER_STARTUP,)

    def __init__(
        self,
        config: PolyraptorConfig,
        session_id: int,
        object_bytes: int,
        receiver_host_ids: list[int],
        local_host: int,
        multicast_group: Optional[int] = None,
        sender_index: int = 0,
        num_senders: int = 1,
        encoder: Optional[ObjectEncoder] = None,
        link_rate_bps: Optional[float] = None,
    ) -> None:
        # ``link_rate_bps`` is accepted and ignored: a pull-clocked sender
        # needs no rate of its own.  It stays only because the performance
        # ledger's protocol probe still passes it.
        super().__init__()
        if not receiver_host_ids:
            raise ValueError("a sender session needs at least one receiver")
        if num_senders < 1 or not 0 <= sender_index < num_senders:
            raise ValueError("invalid sender_index / num_senders")
        if multicast_group is not None and num_senders != 1:
            raise ValueError("multicast sessions have a single sender")

        self.config = config
        self.session_id = session_id
        self.local_host = local_host
        self.object_bytes = object_bytes
        self.receiver_host_ids = list(receiver_host_ids)
        self.multicast_group = multicast_group
        self.sender_index = sender_index
        self.num_senders = num_senders

        self.oti = partition_object(
            object_bytes, self.config.symbol_size_bytes, self.config.max_symbols_per_block
        )
        # Per-block sending state: remaining source ESIs of this sender's
        # partition, and the next repair ESI (repair ESIs are strided by the
        # number of senders so different senders never emit the same symbol).
        self._pending_source: dict[int, deque[int]] = {}
        self._next_repair_esi: dict[int, int] = {}
        for block in range(self.oti.num_source_blocks):
            k = self.oti.block_symbol_count(block)
            self._pending_source[block] = deque(
                esi for esi in range(k) if esi % num_senders == sender_index
            )
            self._next_repair_esi[block] = k + sender_index

        # Multicast aggregation state.
        self._active_receivers: set[int] = set(receiver_host_ids)
        self._done_receivers: set[int] = set()
        self._pull_credits: dict[int, int] = {r: 0 for r in receiver_host_ids}
        self._last_hint: dict[int, Optional[int]] = {r: None for r in receiver_host_ids}
        self._default_hint: Optional[int] = None
        #: per-stream emission counters stamped onto SymbolPayload.sequence:
        #: key None = the multicast stream, receiver id = its unicast stream
        self._sequence_streams: dict[Optional[int], int] = {}

        # Payload mode reads every symbol from ``encoder`` (maybe shared).
        self._encoder: Optional[ObjectEncoder] = None
        if self.config.carry_payload:
            if encoder is None:
                raise ValueError("carry_payload mode requires an object encoder")
            if encoder.oti != self.oti:
                raise ValueError(f"the encoder's {encoder.oti} does not match the session's {self.oti}")
            self._encoder = encoder

        self.completed = False
        self.completion_time: Optional[float] = None
        self.symbols_sent = 0
        self.source_symbols_sent = 0
        self.repair_symbols_sent = 0
        self.pulls_received = 0
        self.multicast_rounds = 0
        #: startup-stall recovery: a receiver that never gets a single
        #: symbol -- e.g. its (or this sender's) rack lost power the moment
        #: the session started -- does not even know the session exists, so
        #: nothing on its side can unblock it.  Probing is cancelled
        #: per-receiver: the timer stops only once every receiver has been
        #: heard from (a pull or a DONE), so a multicast session with one
        #: dark receiver keeps probing that receiver alone.
        self.startup_retries = 0
        self._heard_receivers: set[int] = set()
        #: whether the startup timer is logically armed (the core tracks this
        #: itself so probing decisions never have to ask the driver's clock)
        self._startup_armed = False

    # Public API ------------------------------------------------------------------

    @property
    def is_multicast(self) -> bool:
        """True if this session multicasts symbols through a group."""
        return self.multicast_group is not None

    def start(self, now: float) -> None:
        """Push the initial window of symbols at line rate.

        The window's (block, esi) sequence is chosen first, then payloads for
        all of it are produced per block through
        :meth:`~repro.rq.block.ObjectEncoder.symbol_block` -- one batched
        symbol-plane pass per block instead of a per-symbol encode call --
        and finally the packets are emitted in the original order.
        """
        window = self.config.initial_window_symbols
        if self.num_senders > 1:
            window = max(1, math.ceil(window / self.num_senders))
        picks = [self._next_symbol(None) for _ in range(window)]
        for (block, esi), data in zip(picks, self._batch_payloads(picks)):
            self._emit_symbol(block, esi, data=data)
        self._arm_startup(self.config.stall_timeout_s)

    def on_timer(self, name: str, now: float) -> None:
        """Handle the expiry of one of this session's named timers."""
        if name == self.TIMER_STARTUP:
            self._startup_armed = False
            self._on_startup_stall(now)
        else:  # pragma: no cover - drivers only route the known name
            raise ValueError(f"unknown sender timer {name!r}")

    def on_pull(self, pull: PullPayload, now: float) -> None:
        """Handle a pull request from a receiver."""
        # A pull proves *this* receiver learned of the session; probing
        # stops only once every receiver has been heard from.
        self._note_receiver_heard(pull.receiver_host)
        if self.completed:
            return
        self.pulls_received += 1
        receiver = pull.receiver_host
        if receiver in self._done_receivers:
            return
        if not self.is_multicast:
            block, esi = self._next_symbol(pull.block_hint)
            self._emit_symbol(block, esi, unicast_to=receiver)
            return
        self._pull_credits[receiver] = self._pull_credits.get(receiver, 0) + 1
        self._last_hint[receiver] = pull.block_hint
        self._run_multicast_rounds()

    def on_done(self, done: DonePayload, now: float) -> None:
        """Handle a receiver's DONE notification."""
        self._note_receiver_heard(done.receiver_host)
        receiver = done.receiver_host
        # Always acknowledge, duplicates included: the receiver retransmits
        # DONE until an ack arrives, and an earlier ack may itself have been
        # lost to the fabric.
        self._emit(
            SendPacket(
                payload=DoneAckPayload(
                    session_id=self.session_id, sender_host=self.local_host
                ),
                kind=KIND_CONTROL,
                size_bytes=HEADER_BYTES,
                dest=receiver,
            )
        )
        if receiver in self._done_receivers:
            return
        self._done_receivers.add(receiver)
        self._active_receivers.discard(receiver)
        self._pull_credits.pop(receiver, None)
        if self.is_multicast:
            # The finished receiver can no longer block aggregation.
            self._run_multicast_rounds()
        if set(self.receiver_host_ids) <= self._done_receivers:
            self._complete(now)

    # Symbol sequencing -------------------------------------------------------------

    def _next_symbol(self, block_hint: Optional[int]) -> tuple[int, int]:
        """Pick the next (block, esi) to emit, honouring the receiver's hint."""
        block = self._choose_block(block_hint)
        pending = self._pending_source[block]
        if pending:
            esi = pending.popleft()
        else:
            esi = self._next_repair_esi[block]
            self._next_repair_esi[block] += self.num_senders
        return block, esi

    def _choose_block(self, block_hint: Optional[int]) -> int:
        if block_hint is not None and 0 <= block_hint < self.oti.num_source_blocks:
            self._default_hint = block_hint
            return block_hint
        for block in range(self.oti.num_source_blocks):
            if self._pending_source[block]:
                return block
        if self._default_hint is not None:
            return self._default_hint
        return 0

    def _batch_payloads(self, picks: list[tuple[int, int]]) -> list[Optional[bytes]]:
        """Encode the payloads for a run of (block, esi) picks, batched per block.

        Returns one entry per pick, in pick order (``None`` everywhere in
        identity-tracking mode).  ``ObjectEncoder.symbol_block`` preserves the
        ESI order it is given, so per-block queues map straight back.
        """
        if self._encoder is None:
            return [None] * len(picks)
        esis_by_block: dict[int, list[int]] = {}
        for block, esi in picks:
            esis_by_block.setdefault(block, []).append(esi)
        encoded = {
            block: deque(self._encoder.symbol_block(block, esis))
            for block, esis in esis_by_block.items()
        }
        return [encoded[block].popleft().data for block, _ in picks]

    def _emit_symbol(self, block: int, esi: int, unicast_to: Optional[int] = None,
                     data: Optional[bytes] = None) -> None:
        if data is None and self._encoder is not None:
            data = self._encoder.symbol(block, esi).data
        k = self.oti.block_symbol_count(block)
        if unicast_to is None and self.is_multicast:
            destination = None
            group = self.multicast_group
        else:
            destination = unicast_to if unicast_to is not None else self.receiver_host_ids[0]
            group = None
        # One emission counter per stream (multicast vs each unicast leg):
        # receivers difference consecutive values to find vanished symbols.
        stream = destination
        sequence = self._sequence_streams.get(stream, 0) + 1
        self._sequence_streams[stream] = sequence
        payload = SymbolPayload(
            session_id=self.session_id,
            sender_host=self.local_host,
            block_number=block,
            esi=esi,
            block_symbol_count=k,
            num_blocks=self.oti.num_source_blocks,
            object_bytes=self.object_bytes,
            data=data,
            sequence=sequence,
        )
        self._emit(
            SendPacket(
                payload=payload,
                kind=KIND_DATA,
                size_bytes=self.config.symbol_packet_bytes,
                dest=destination,
                multicast_group=group,
            )
        )
        self.symbols_sent += 1
        if esi < k:
            self.source_symbols_sent += 1
        else:
            self.repair_symbols_sent += 1

    # Multicast aggregation -----------------------------------------------------------

    def _aggregated_hint(self) -> Optional[int]:
        hints = [
            self._last_hint.get(receiver)
            for receiver in self._active_receivers
            if self._last_hint.get(receiver) is not None
        ]
        return min(hints) if hints else None

    def _run_multicast_rounds(self) -> None:
        """Multicast one symbol for every full round of pulls available."""
        active = self._active_receivers
        if self.completed or not active:
            return
        while all(self._pull_credits.get(receiver, 0) >= 1 for receiver in active):
            for receiver in active:
                self._pull_credits[receiver] -= 1
            block, esi = self._next_symbol(self._aggregated_hint())
            self._emit_symbol(block, esi)
            self.multicast_rounds += 1

    # Startup-stall recovery ------------------------------------------------------------

    def _arm_startup(self, delay_s: float) -> None:
        self._startup_armed = True
        self._emit(SetTimer(self.TIMER_STARTUP, delay_s))

    def _note_receiver_heard(self, receiver: int) -> None:
        """Stop startup probing once every receiver has proven it knows us."""
        if not self._startup_armed:
            return
        self._heard_receivers.add(receiver)
        if set(self.receiver_host_ids) <= (self._heard_receivers | self._done_receivers):
            self._startup_armed = False
            self._emit(StopTimer(self.TIMER_STARTUP))

    def _on_startup_stall(self, now: float) -> None:
        """Some receiver has never been heard from: its symbols all died.

        This is the sender-side twin of the receiver's stall timer, needed
        because that timer only exists once a receiver has *learned of* the
        session -- a sender that starts inside a dead rack (rack power
        fault) announces to nobody, and a receiver whose own rack was dark
        misses the whole initial window even while its group mates pull
        happily.  Re-probe each unheard receiver with one unicast symbol,
        backing off exponentially; probing stops per receiver as pulls or
        DONEs arrive, and the retry cap keeps the event heap finite when a
        receiver stays unreachable to the end of the run.
        """
        if self.completed:
            return
        targets = [
            r for r in self.receiver_host_ids
            if r not in self._heard_receivers and r not in self._done_receivers
        ]
        if not targets:
            return
        self.startup_retries += 1
        picks = [self._next_symbol(None) for _ in targets]
        payloads = self._batch_payloads(picks)
        for receiver, (block, esi), data in zip(targets, picks, payloads):
            self._emit_symbol(block, esi, unicast_to=receiver, data=data)
        if self.startup_retries < STARTUP_RETRY_LIMIT:
            self._arm_startup(
                self.config.stall_timeout_s * (2 ** self.startup_retries)
            )

    # Completion -----------------------------------------------------------------------

    def _complete(self, now: float) -> None:
        if self.completed:
            return
        self.completed = True
        self.completion_time = now
        self._startup_armed = False
        self._emit(StopTimer(self.TIMER_STARTUP))
        self._emit(SessionCompleted(self.session_id, now))

