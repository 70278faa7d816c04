"""TCP sender: NewReno congestion control, fast retransmit/recovery, RTO."""

from __future__ import annotations

from typing import Callable, Optional

from repro.network.host import Host
from repro.network.packet import Packet, PacketKind
from repro.sim.engine import Simulator
from repro.transport.tcp.config import TCP_PROTOCOL, TcpConfig
from repro.transport.tcp.segments import TcpSegment
from repro.utils.clock import Timer


class TcpSender:
    """Sender-side state machine for one TCP flow."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        config: TcpConfig,
        flow_id: int,
        dst_host_id: int,
        total_bytes: int,
        on_complete: Optional[Callable[[float], None]] = None,
    ) -> None:
        if total_bytes <= 0:
            raise ValueError("total_bytes must be positive")
        self._sim = sim
        self._host = host
        self.config = config
        self.flow_id = flow_id
        self.dst_host_id = dst_host_id
        self.total_bytes = total_bytes
        self._on_complete = on_complete

        self.snd_una = 0
        self.snd_nxt = 0
        self.cwnd = float(config.initial_cwnd_bytes)
        self.ssthresh = float(config.initial_ssthresh_bytes)
        self.duplicate_acks = 0
        self.in_fast_recovery = False
        self.recovery_point = 0

        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.rto = config.initial_rto_s

        self.completed = False
        self.completion_time: Optional[float] = None
        self.retransmissions = 0
        self.timeouts = 0
        self.fast_retransmits = 0
        self.segments_sent = 0
        self.ecn_reactions = 0
        #: sequence guard: react to ECE at most once per window of data
        self._cwr_point = 0

        self._send_times: dict[int, float] = {}
        self._retransmit_timer = Timer(sim, self._on_timeout)

    # Public API ----------------------------------------------------------------

    def start(self) -> None:
        """Begin transmitting (the connection is assumed established)."""
        self._send_available()

    def close(self) -> None:
        """Disarm the retransmit timer and drop it with the completion callback.

        The timer calls back into this sender, so it is the edge that keeps
        the flow's state cyclic; counters stay readable.  The flow must not
        be driven afterwards.
        """
        self._retransmit_timer.stop()
        self._retransmit_timer = None
        self._on_complete = None

    def on_ack(self, ack_seq: int, ece: bool = False) -> None:
        """Process a cumulative acknowledgement (``ece`` = echoed CE mark)."""
        if self.completed:
            return
        if ece:
            self._on_ecn_echo(ack_seq)
        if ack_seq > self.snd_una:
            self._on_new_ack(ack_seq)
        elif ack_seq == self.snd_una and self.snd_nxt > self.snd_una:
            self._on_duplicate_ack()

    def _on_ecn_echo(self, ack_seq: int) -> None:
        """RFC 3168 reaction: halve cwnd at most once per window of data."""
        if self.in_fast_recovery or ack_seq <= self._cwr_point:
            return
        mss = self.config.mss_bytes
        self.ecn_reactions += 1
        self.ssthresh = max(self.cwnd / 2, 2.0 * mss)
        self.cwnd = self.ssthresh
        self._cwr_point = self.snd_nxt

    @property
    def bytes_in_flight(self) -> int:
        """Unacknowledged bytes currently outstanding."""
        return self.snd_nxt - self.snd_una

    # Sending -------------------------------------------------------------------

    def _send_available(self) -> None:
        mss = self.config.mss_bytes
        while self.snd_nxt < self.total_bytes and self.bytes_in_flight + mss <= self.cwnd:
            length = min(mss, self.total_bytes - self.snd_nxt)
            self._transmit(self.snd_nxt, length, retransmission=False)
            self.snd_nxt += length
        if self.bytes_in_flight > 0 and not self._retransmit_timer.running:
            self._retransmit_timer.start(self.rto)

    def _transmit(self, seq: int, length: int, retransmission: bool) -> None:
        segment = TcpSegment(
            flow_id=self.flow_id,
            src_host=self._host.node_id,
            dst_host=self.dst_host_id,
            seq=seq,
            length=length,
            retransmission=retransmission,
        )
        packet = Packet(
            protocol=TCP_PROTOCOL,
            src=self._host.node_id,
            dst=self.dst_host_id,
            size_bytes=length + self.config.header_bytes,
            kind=PacketKind.DATA,
            flow_id=self.flow_id,
            header_bytes=self.config.header_bytes,
            payload=segment,
        )
        self.segments_sent += 1
        if retransmission:
            self.retransmissions += 1
            # Karn's algorithm: never sample RTT from a retransmitted segment.
            self._send_times.pop(seq, None)
        else:
            self._send_times[seq] = self._sim.now
        self._host.send(packet)

    # ACK processing -------------------------------------------------------------

    def _on_new_ack(self, ack_seq: int) -> None:
        mss = self.config.mss_bytes
        newly_acked = ack_seq - self.snd_una
        self._sample_rtt(ack_seq)
        self.snd_una = ack_seq
        self.duplicate_acks = 0

        if self.in_fast_recovery:
            if ack_seq >= self.recovery_point:
                # Full ACK: leave fast recovery (NewReno).
                self.cwnd = self.ssthresh
                self.in_fast_recovery = False
            else:
                # Partial ACK: retransmit the next missing segment, deflate.
                length = min(mss, self.total_bytes - ack_seq)
                if length > 0:
                    self._transmit(ack_seq, length, retransmission=True)
                self.cwnd = max(self.cwnd - newly_acked + mss, float(mss))
        else:
            if self.cwnd < self.ssthresh:
                self.cwnd += min(newly_acked, mss)
            else:
                self.cwnd += max(1.0, mss * mss / self.cwnd)

        if self.snd_una >= self.total_bytes:
            self._complete()
            return
        self._retransmit_timer.start(self.rto)
        self._send_available()

    def _on_duplicate_ack(self) -> None:
        mss = self.config.mss_bytes
        self.duplicate_acks += 1
        if self.in_fast_recovery:
            # Inflate the window for every additional duplicate ACK.
            self.cwnd += mss
            self._send_available()
            return
        if self.duplicate_acks == self.config.duplicate_ack_threshold:
            self.fast_retransmits += 1
            self.ssthresh = max(self.bytes_in_flight / 2, 2.0 * mss)
            self.recovery_point = self.snd_nxt
            self.in_fast_recovery = True
            self.cwnd = self.ssthresh + 3 * mss
            length = min(mss, self.total_bytes - self.snd_una)
            if length > 0:
                self._transmit(self.snd_una, length, retransmission=True)
            self._retransmit_timer.start(self.rto)

    # Timers ------------------------------------------------------------------------

    def _on_timeout(self) -> None:
        if self.completed:
            return
        mss = self.config.mss_bytes
        self.timeouts += 1
        self.ssthresh = max(self.bytes_in_flight / 2, 2.0 * mss)
        self.cwnd = float(mss)
        self.in_fast_recovery = False
        self.duplicate_acks = 0
        self.rto = min(self.rto * 2, self.config.max_rto_s)
        # Go-back-N: rewind and retransmit from the last cumulative ACK.
        self.snd_nxt = self.snd_una
        self._send_times.clear()
        length = min(mss, self.total_bytes - self.snd_nxt)
        if length > 0:
            self._transmit(self.snd_nxt, length, retransmission=True)
            self.snd_nxt += length
        self._retransmit_timer.start(self.rto)

    # RTT estimation ------------------------------------------------------------------

    def _sample_rtt(self, ack_seq: int) -> None:
        sample: Optional[float] = None
        for seq in sorted(self._send_times):
            if seq < ack_seq:
                sample = self._sim.now - self._send_times[seq]
        for seq in [seq for seq in self._send_times if seq < ack_seq]:
            del self._send_times[seq]
        if sample is None:
            return
        if self.srtt is None or self.rttvar is None:
            self.srtt = sample
            self.rttvar = sample / 2
        else:
            beta = self.config.rtt_beta
            alpha = self.config.rtt_alpha
            self.rttvar = (1 - beta) * self.rttvar + beta * abs(self.srtt - sample)
            self.srtt = (1 - alpha) * self.srtt + alpha * sample
        self.rto = min(
            self.config.max_rto_s,
            max(self.config.min_rto_s, self.srtt + 4 * self.rttvar),
        )

    # Completion --------------------------------------------------------------------------

    def _complete(self) -> None:
        self.completed = True
        self.completion_time = self._sim.now
        self._retransmit_timer.stop()
        if self._on_complete is not None:
            self._on_complete(self._sim.now)
