"""Polyraptor protocol configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.rq.block import DEFAULT_MAX_SYMBOLS_PER_BLOCK, DEFAULT_SYMBOL_SIZE
from repro.utils.units import MICROSECOND
from repro.utils.validation import check_positive

#: wire header size of every Polyraptor packet: symbols, pulls and the
#: request/done control packets alike.
HEADER_BYTES = 64
#: extra symbols (beyond K) a receiver collects before declaring a block
#: decodable when at least one source symbol was lost; with two extra
#: symbols, rank trials at K=6 measured about one decode failure in 20 000.
DECODE_OVERHEAD_SYMBOLS = 2
#: how many times a completed receiver re-sends an unacknowledged DONE
#: notification, with exponential backoff starting at ``stall_timeout_s``.
#: DONE is a single control packet; if the fabric drops it -- e.g. on a link
#: a fault schedule took down -- the sender would otherwise wait forever and
#: the transfer would never be recorded as complete.  Senders acknowledge
#: every DONE (healthy sessions therefore never retry), retries are
#: idempotent, and the cap keeps event heaps finite when a sender stays
#: unreachable.
DONE_RETRY_LIMIT = 8
#: how many times a push sender re-probes receivers it has never heard from
#: (one unicast symbol each, exponential backoff starting at
#: ``stall_timeout_s``).  The receiver-side stall timer only exists once a
#: receiver has learned of the session from a first arriving symbol; if the
#: sender starts while its own rack is dark (a rack power event), or one
#: receiver's rack is, that receiver never hears anything and the session
#: would deadlock.  Probing is cancelled per receiver as pulls or DONEs
#: arrive, so healthy sessions never retry and a multicast group keeps
#: probing only its dark members.
STARTUP_RETRY_LIMIT = 8


@dataclass(frozen=True)
class PolyraptorConfig:
    """Tunable parameters of the Polyraptor protocol.

    Attributes:
        symbol_size_bytes: payload bytes of one encoding symbol (fits in an
            MTU together with the header).
        initial_window_symbols: how many symbols a sender pushes at line rate
            before becoming pull-clocked (roughly one bandwidth-delay product;
            18 MTU-sized symbols cover the ~190 microsecond RTT of the
            paper's 1 Gbps FatTree).
        max_symbols_per_block: cap on source symbols per block (the object
            layer splits larger objects).
        carry_payload: if True, symbol packets carry real encoded bytes and
            receivers actually decode (slower; used by integration tests and
            the quickstart example).  If False, the simulation tracks symbol
            identities only, which is behaviourally equivalent for the
            goodput experiments.
        stall_timeout_s: receiver-side timer; if nothing arrives for this long
            on an incomplete session, the receiver re-issues pulls (guards
            against the rare loss of trimmed headers).
    """

    symbol_size_bytes: int = DEFAULT_SYMBOL_SIZE
    initial_window_symbols: int = 18
    max_symbols_per_block: int = DEFAULT_MAX_SYMBOLS_PER_BLOCK
    carry_payload: bool = False
    stall_timeout_s: float = 500 * MICROSECOND
    #: real-network loss recovery: when True, a receiver that detects a
    #: sequence gap on an arriving symbol immediately enqueues one extra
    #: pull per newly missing symbol (capped at ``initial_window_symbols``
    #: per arrival).  On a real wire a lost datagram vanishes silently --
    #: there is no trimmed header to keep the pull clock running -- so gap
    #: pulls replace the lost credits; the stall timer remains the backstop
    #: for trailing losses.  The simulator's trimming fabric never needs
    #: this, so it defaults off and sim runs are byte-identical.
    pull_on_gap: bool = False

    def __post_init__(self) -> None:
        check_positive("symbol_size_bytes", self.symbol_size_bytes)
        check_positive("initial_window_symbols", self.initial_window_symbols)
        check_positive("max_symbols_per_block", self.max_symbols_per_block)
        check_positive("stall_timeout_s", self.stall_timeout_s)

    @property
    def symbol_packet_bytes(self) -> int:
        """Wire size of a full (untrimmed) symbol packet."""
        return self.symbol_size_bytes + HEADER_BYTES
