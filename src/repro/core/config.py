"""Polyraptor protocol configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.rq.block import DEFAULT_MAX_SYMBOLS_PER_BLOCK, DEFAULT_SYMBOL_SIZE
from repro.utils.units import MICROSECOND
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class PolyraptorConfig:
    """Tunable parameters of the Polyraptor protocol.

    Attributes:
        symbol_size_bytes: payload bytes of one encoding symbol (fits in an
            MTU together with the header).
        header_bytes: wire header size for every Polyraptor packet.
        initial_window_symbols: how many symbols a sender pushes at line rate
            before becoming pull-clocked (roughly one bandwidth-delay product;
            18 MTU-sized symbols cover the ~190 microsecond RTT of the
            paper's 1 Gbps FatTree).
        decode_overhead_symbols: extra symbols (beyond K) a receiver collects
            before declaring a block decodable when at least one source symbol
            was lost; RFC 6330's two-symbol overhead gives a failure
            probability below 1e-6.
        pull_bytes: wire size of a pull request.
        control_bytes: wire size of request/done control packets.
        max_symbols_per_block: cap on source symbols per block (the object
            layer splits larger objects).
        carry_payload: if True, symbol packets carry real encoded bytes and
            receivers actually decode (slower; used by integration tests and
            the quickstart example).  If False, the simulation tracks symbol
            identities only, which is behaviourally equivalent for the
            goodput experiments.
        divide_initial_window_among_senders: in a multi-source session, have
            each of the N senders push window/N symbols initially instead of a
            full window each.
        stall_timeout_s: receiver-side timer; if nothing arrives for this long
            on an incomplete session, the receiver re-issues pulls (guards
            against the rare loss of trimmed headers).
        done_retry_limit: how many times a completed receiver re-sends an
            unacknowledged DONE notification, with exponential backoff
            starting at ``stall_timeout_s``.  DONE is a single control
            packet; if the fabric drops it -- e.g. on a link a fault
            schedule took down -- the sender would otherwise wait forever
            and the transfer would never be recorded as complete.  Senders
            acknowledge every DONE (healthy sessions therefore never
            retry), retries are idempotent, and the cap keeps event heaps
            finite when a sender stays unreachable.
        startup_retry_limit: how many times a push sender re-probes
            receivers it has never heard from (one unicast symbol each,
            exponential backoff starting at ``stall_timeout_s``).  The
            receiver-side stall timer only exists once a receiver has
            learned of the session from a first arriving symbol; if the
            sender starts while its own rack is dark (a rack power event),
            or one receiver's rack is, that receiver never hears anything
            and the session would deadlock.  Probing is cancelled per
            receiver as pulls or DONEs arrive, so healthy sessions never
            retry and a multicast group keeps probing only its dark
            members.
        straggler_detection: enable the multicast straggler extension (detach
            receivers that fall too far behind into a unicast leg).
        straggler_lag_symbols: how many pulls a receiver may lag behind the
            fastest group member before being detached.  Because pull counts
            can never diverge by more than roughly the initial window (the
            sender is pull-clocked), this should be set below
            ``initial_window_symbols``.
        codec_backend: which registered RQ codec backend sessions use when no
            shared :class:`~repro.rq.backend.CodecContext` is supplied:
            ``"planned"`` (elimination-plan cache + batched replay, the
            default) or ``"reference"`` (full per-block elimination).
        codec_kernel: which :mod:`repro.rq.kernels` GF(256) kernel executes
            the codec's linear algebra: ``"auto"`` (the default; honours the
            ``REPRO_GF_KERNEL`` environment variable, then picks
            ``bitplane``), ``"bitplane"`` (gather-free XOR folds) or
            ``"numpy"`` (the table-lookup oracle).  The choice travels
            inside :class:`~repro.experiments.parallel.RunJob` configs, so
            sharded workers inherit the parent's kernel.  Symbols are
            byte-identical for every kernel; only wall-clock changes.
    """

    symbol_size_bytes: int = DEFAULT_SYMBOL_SIZE
    header_bytes: int = 64
    initial_window_symbols: int = 18
    decode_overhead_symbols: int = 2
    pull_bytes: int = 64
    control_bytes: int = 64
    max_symbols_per_block: int = DEFAULT_MAX_SYMBOLS_PER_BLOCK
    carry_payload: bool = False
    divide_initial_window_among_senders: bool = True
    stall_timeout_s: float = 500 * MICROSECOND
    done_retry_limit: int = 8
    startup_retry_limit: int = 8
    straggler_detection: bool = False
    straggler_lag_symbols: int = 12
    #: TFRC pacing: when True, each receiver's pull pacer and each sender's
    #: initial window are clocked by an equation-based
    #: :class:`repro.transport.tfrc.TfrcController` fed by CE marks, trims
    #: and RTT samples, instead of the fixed one-symbol-serialization-time
    #: cadence.  With no congestion signals the allowed rate equals the
    #: line rate, so a clean path behaves identically.
    tfrc_pacing: bool = False
    #: gray-failure detection: detach receivers whose per-path EWMA loss
    #: estimate (from symbol-sequence gaps) exceeds ``gray_loss_threshold``,
    #: exactly like lag-based straggler detachment.
    gray_detection: bool = False
    gray_loss_threshold: float = 0.05
    #: symbols per loss-estimation window (sequence-gap accounting).
    gray_window_symbols: int = 32
    #: EWMA weight of the newest per-window loss sample.
    gray_ewma_weight: float = 0.3
    #: real-network loss recovery: when True, a receiver that detects a
    #: sequence gap on an arriving symbol immediately enqueues one extra
    #: pull per newly missing symbol (capped at ``initial_window_symbols``
    #: per arrival).  On a real wire a lost datagram vanishes silently --
    #: there is no trimmed header to keep the pull clock running -- so gap
    #: pulls replace the lost credits; the stall timer remains the backstop
    #: for trailing losses.  The simulator's trimming fabric never needs
    #: this, so it defaults off and sim runs are byte-identical.
    pull_on_gap: bool = False
    codec_backend: str = "planned"
    codec_kernel: str = "auto"

    def __post_init__(self) -> None:
        from repro.rq.backend import available_backends
        from repro.rq.kernels import available_kernels

        if self.codec_backend not in available_backends():
            raise ValueError(
                f"unknown codec_backend {self.codec_backend!r}; "
                f"available: {', '.join(available_backends())}"
            )
        if self.codec_kernel != "auto" and self.codec_kernel not in available_kernels():
            raise ValueError(
                f"unknown codec_kernel {self.codec_kernel!r}; "
                f"choose 'auto' or one of: {', '.join(available_kernels())}"
            )
        check_positive("symbol_size_bytes", self.symbol_size_bytes)
        check_positive("header_bytes", self.header_bytes)
        check_positive("initial_window_symbols", self.initial_window_symbols)
        check_non_negative("decode_overhead_symbols", self.decode_overhead_symbols)
        check_positive("pull_bytes", self.pull_bytes)
        check_positive("control_bytes", self.control_bytes)
        check_positive("max_symbols_per_block", self.max_symbols_per_block)
        check_positive("stall_timeout_s", self.stall_timeout_s)
        check_non_negative("done_retry_limit", self.done_retry_limit)
        check_non_negative("startup_retry_limit", self.startup_retry_limit)
        check_positive("straggler_lag_symbols", self.straggler_lag_symbols)
        if not (0.0 < self.gray_loss_threshold < 1.0):
            raise ValueError("gray_loss_threshold must be in (0, 1)")
        check_positive("gray_window_symbols", self.gray_window_symbols)
        if not (0.0 < self.gray_ewma_weight <= 1.0):
            raise ValueError("gray_ewma_weight must be in (0, 1]")

    @property
    def symbol_packet_bytes(self) -> int:
        """Wire size of a full (untrimmed) symbol packet."""
        return self.symbol_size_bytes + self.header_bytes
