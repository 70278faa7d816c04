"""The ``repro fetch`` endpoint: retrieve one named object over real UDP.

A fetch is three phases, one socket **per source** (a single server by
default, or any number of replica holders via ``sources=[...]``):

1. **Open** -- send ``OPEN(name, symbol_size)`` to every source until an
   ``OPEN_OK`` (session id + object size + granted symbol size) or
   ``OPEN_ERR`` arrives; retransmits are idempotent server-side, so a lost
   grant costs one round trip.  Every source must grant the same object
   size and symbol size -- mismatched grants abort the fetch.
2. **Transfer** -- run a single
   :class:`~repro.protocol.receiver.ReceiverCore` (with one expected
   sender per source) through :func:`repro.net.driver.drive`: REQUESTs go
   out to every source, symbols from all of them fold into one decode, pulls
   are paced at ``max_rate_bps`` and routed to whichever sender delivered
   (the paper's natural load balancing), and the stall timer plus
   gap-triggered pulls recover from datagram loss.  Each server grants its *own* session id; the
   per-source connection translates between that wire id and the core's
   local session id on every frame, so the core never has to know.
3. **Linger** -- after decoding completes, stay up briefly so DONE
   retransmissions can land their acks and the servers can retire their
   sessions cleanly.

A source that stays silent for ``resume_interval_s`` -- regardless of how
many symbols it already delivered -- is re-opened and re-requested.  While
the server still holds the grant this is a pure (idempotent) retransmit;
after a server restart it obtains a fresh grant, re-binds the connection's
wire session id and resumes the transfer with the symbols already decoded,
so a mid-transfer restart costs one silent interval, not the whole fetch.

An optional seeded loss rate drops arriving *symbol* frames before they
reach the protocol core, turning a clean loopback into a reproducibly
lossy path for integration tests (each source's drop stream is seeded
independently).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import replace as dc_replace
from typing import Optional, Sequence, Tuple

from repro.core.config import PolyraptorConfig
from repro.core.packets import DoneAckPayload, SymbolPayload
from repro.net.driver import DEFAULT_WIRE_RATE_BPS, AsyncioClock, drive, wire_config
from repro.net.server import (
    CLIENT_HOST_ID,
    DEFAULT_PORT,
    sender_host_id,
)
from repro.net.udp import open_endpoint
from repro.net.wire import (
    OpenErrPayload,
    OpenOkPayload,
    OpenPayload,
    WireError,
    decode_frame,
    encode_frame,
    max_symbol_size_for_mtu,
)
from repro.protocol.actions import SendPacket
from repro.protocol.driver import SessionDriver
from repro.protocol.receiver import ReceiverCore
from repro.utils.validation import check_non_negative, check_positive, check_probability


class FetchError(RuntimeError):
    """A fetch could not be completed (refused, timed out, or undecodable)."""


class _FetchProtocol(asyncio.DatagramProtocol):
    """Client-side socket glue for one source: frames in, driver events out.

    Owns the source's wire-level session id (the id *this* server granted)
    and rewrites it to the core's local session id on arriving frames --
    and back on departing ones -- so one :class:`ReceiverCore` can fold
    symbols from any number of independently granted sessions.
    """

    def __init__(self, loss_rate: float, loss_seed: int, index: int = 0) -> None:
        self._loss_rate = loss_rate
        self._loss_rng = random.Random(loss_seed)
        self.index = index
        #: the protocol host id this source's sender stamps on its symbols
        self.sender_host = sender_host_id(index)
        self.transport: Optional[asyncio.DatagramTransport] = None
        self.driver: Optional[SessionDriver] = None
        #: set, shared by every source of the fetch, once the core holds a
        #: DONE_ACK from each of them (ends the linger)
        self.fully_acked: Optional[asyncio.Event] = None
        self.grant: Optional[asyncio.Future] = None
        #: the session id granted by this source's server (None until open)
        self.wire_session_id: Optional[int] = None
        #: loop time of the last frame this source delivered to the driver
        self.last_heard = 0.0
        self.frames_dropped = 0
        self.malformed_frames = 0

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        self.grant = asyncio.get_running_loop().create_future()

    def reset_grant(self) -> None:
        """Arm a fresh grant future (before an OPEN or a recovery re-OPEN)."""
        self.grant = asyncio.get_running_loop().create_future()

    def error_received(self, exc: Exception) -> None:  # pragma: no cover - OS-dependent
        # e.g. ICMP port-unreachable while the server is still starting;
        # the OPEN retry loop absorbs it.
        pass

    def _expected_session_id(self) -> Optional[int]:
        if self.wire_session_id is not None:
            return self.wire_session_id
        if self.driver is not None:
            return self.driver.core.session_id
        return None

    def _to_core(self, payload):
        """Rewrite a wire-session payload to the core's local session id."""
        core_id = self.driver.core.session_id
        if payload.session_id != core_id:
            payload = dc_replace(payload, session_id=core_id)
        return payload

    def datagram_received(self, data: bytes, addr) -> None:
        try:
            frame = decode_frame(data)
        except WireError:
            self.malformed_frames += 1
            return
        payload = frame.payload
        if isinstance(payload, SymbolPayload):
            if self._loss_rate > 0.0 and self._loss_rng.random() < self._loss_rate:
                self.frames_dropped += 1
                return
            if (
                self.driver is not None
                and payload.session_id == self._expected_session_id()
            ):
                self._note_heard()
                self.driver.on_symbol(self._to_core(payload))
        elif isinstance(payload, DoneAckPayload):
            if (
                self.driver is not None
                and payload.session_id == self._expected_session_id()
            ):
                self._note_heard()
                self.driver.on_done_ack(self._to_core(payload))
                if self.driver.core.done_fully_acked:
                    self.fully_acked.set()
        elif isinstance(payload, (OpenOkPayload, OpenErrPayload)):
            if self.grant is not None and not self.grant.done():
                self.grant.set_result(payload)
        else:
            # Server-bound frame looped back at us; ignore.
            self.malformed_frames += 1

    def _note_heard(self) -> None:
        self.last_heard = asyncio.get_running_loop().time()

    def send_raw(self, datagram: bytes) -> None:
        if self.transport is not None:
            self.transport.sendto(datagram)

    def transmit(self, action: SendPacket) -> None:
        """Send one core action to this source, stamped with its wire id."""
        payload = action.payload
        if (
            self.wire_session_id is not None
            and payload.session_id != self.wire_session_id
        ):
            payload = dc_replace(payload, session_id=self.wire_session_id)
        self.send_raw(encode_frame(payload))


def _granted_symbol_size(grant: OpenOkPayload, default: int) -> int:
    """The symbol size a grant fixes (0 means the server offered no opinion)."""
    return grant.symbol_size if grant.symbol_size > 0 else default


async def fetch_object_async(
    name: str,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    sources: Optional[Sequence[Tuple[str, int]]] = None,
    config: Optional[PolyraptorConfig] = None,
    loss_rate: float = 0.0,
    loss_seed: int = 1,
    max_rate_bps: float = DEFAULT_WIRE_RATE_BPS,
    open_timeout_s: float = 0.5,
    open_retries: int = 5,
    transfer_timeout_s: float = 30.0,
    linger_s: float = 0.25,
    mtu: Optional[int] = None,
    resume_interval_s: float = 1.0,
) -> bytes:
    """Fetch one named object from one or more ``repro serve`` endpoints.

    ``sources`` is a sequence of (host, port) replica holders; when omitted
    the single (``host``, ``port``) pair is used.  With N sources the fetch
    opens one session per server and folds all their symbols into a single
    decode.  ``mtu`` caps the proposed symbol size so every DATA frame fits
    one datagram of that path MTU.  Returns the decoded object bytes;
    raises :class:`FetchError` on refusal, mismatched grants or timeout, and
    ``ValueError`` on an out-of-range (or nan) timeout, interval or loss rate.
    """
    check_positive("transfer_timeout_s", transfer_timeout_s)
    check_positive("open_timeout_s", open_timeout_s)
    check_positive("resume_interval_s", resume_interval_s)
    check_non_negative("linger_s", linger_s)
    check_probability("loss_rate", loss_rate)
    config = config if config is not None else wire_config()
    if not config.carry_payload:
        raise FetchError("fetching real bytes requires a carry_payload config")
    endpoints = list(sources) if sources else [(host, port)]
    if not endpoints:
        raise FetchError("a fetch needs at least one source")
    proposal = config.symbol_size_bytes
    if mtu is not None:
        fitting = max_symbol_size_for_mtu(mtu)
        if fitting <= 0:
            raise FetchError(f"mtu {mtu} cannot carry any symbol payload")
        proposal = min(proposal, fitting)

    loop = asyncio.get_running_loop()
    connections: list[_FetchProtocol] = []
    driver: Optional[SessionDriver] = None
    try:
        for index, (src_host, src_port) in enumerate(endpoints):
            _, protocol = await open_endpoint(
                lambda idx=index: _FetchProtocol(loss_rate, loss_seed + idx, idx),
                remote_addr=(src_host, src_port),
            )
            connections.append(protocol)

        grants = await asyncio.gather(
            *(
                _open_session(conn, name, proposal, open_timeout_s, open_retries)
                for conn in connections
            )
        )
        object_bytes = grants[0].object_bytes
        if object_bytes <= 0:
            raise FetchError(f"server granted {name!r} with {object_bytes} bytes: nothing to fetch")
        symbol_size = _granted_symbol_size(grants[0], config.symbol_size_bytes)
        for endpoint, grant in zip(endpoints, grants):
            granted = _granted_symbol_size(grant, config.symbol_size_bytes)
            if grant.object_bytes != object_bytes or granted != symbol_size:
                raise FetchError(
                    f"mismatched grants for {name!r}: {endpoint[0]}:{endpoint[1]} "
                    f"offers {grant.object_bytes} bytes in {granted}-byte symbols, "
                    f"expected {object_bytes} bytes in {symbol_size}-byte symbols"
                )
        if symbol_size > proposal:
            raise FetchError(
                f"server granted {symbol_size}-byte symbols, larger than the "
                f"proposed {proposal} (path MTU would fragment every frame)"
            )
        if symbol_size != config.symbol_size_bytes:
            config = dc_replace(config, symbol_size_bytes=symbol_size)

        clock = AsyncioClock(loop)
        completed = asyncio.Event()
        fully_acked = asyncio.Event()
        core = ReceiverCore(
            config=config,
            session_id=grants[0].session_id,
            object_bytes=object_bytes,
            local_host=CLIENT_HOST_ID,
            expected_senders=[conn.sender_host for conn in connections],
            now=clock.now,
        )
        by_sender = {conn.sender_host: conn for conn in connections}

        def route(action: SendPacket) -> None:
            conn = by_sender.get(action.dest)
            if conn is not None:
                conn.transmit(action)

        driver = drive(
            core,
            clock,
            transmit=route,
            on_complete=lambda _t: completed.set(),
            max_rate_bps=max_rate_bps,
        )
        now = loop.time()
        for conn, grant in zip(connections, grants):
            conn.wire_session_id = grant.session_id
            conn.driver = driver
            conn.fully_acked = fully_acked
            conn.last_heard = now
        driver.start_fetch()

        deadline = loop.time() + transfer_timeout_s
        while not completed.is_set():
            remaining = deadline - loop.time()
            if remaining <= 0:
                raise FetchError(
                    f"transfer of {name!r} timed out after {transfer_timeout_s}s "
                    f"({core.symbols_received} symbols received)"
                )
            try:
                await asyncio.wait_for(
                    completed.wait(), min(remaining, open_timeout_s)
                )
                break
            except asyncio.TimeoutError:
                pass
            if core.symbols_received == 0 and core.trimmed_received == 0:
                # The REQUESTs (or the whole initial window) were lost and
                # no server ever learned of the session; REQUESTs are
                # idempotent, so just ask again.
                driver.start_fetch()
            await _recover_silent_sources(
                connections, driver, name, proposal, object_bytes, symbol_size,
                config, open_timeout_s, resume_interval_s, completed,
            )

        data = core.received_data
        if data is None:
            raise FetchError(f"transfer of {name!r} completed without a decoded payload")

        # Let DONE retransmissions land their acks so the servers retire
        # their sessions; bounded, and over the moment the last ack is read.
        if not core.done_fully_acked:
            try:
                await asyncio.wait_for(fully_acked.wait(), linger_s)
            except asyncio.TimeoutError:
                pass
        return data
    finally:
        # Success or failure, the fetch owns its driver and the driver's
        # pull pacer: both are closed before the sockets, so no timer or
        # pacing tick outlives the fetch on the caller's loop.
        if driver is not None:
            driver.close()
            driver.pacer.close()
        for conn in connections:
            if conn.transport is not None:
                conn.transport.close()


async def _recover_silent_sources(
    connections: Sequence[_FetchProtocol],
    driver: SessionDriver,
    name: str,
    proposal: int,
    object_bytes: int,
    symbol_size: int,
    config: PolyraptorConfig,
    open_timeout_s: float,
    resume_interval_s: float,
    completed: asyncio.Event,
) -> None:
    """Re-OPEN and re-REQUEST every source silent past ``resume_interval_s``.

    Unconditional on prior progress: a server restarted mid-transfer holds
    no grant for our session id anymore, so a bare re-REQUEST would be
    ignored forever -- the re-OPEN either returns the same grant (server
    alive, a pure idempotent retransmit) or a fresh one (server restarted),
    which is re-bound to the connection before the REQUESTs go out again.
    A re-grant that changes the object's size or symbol size is a different
    object and aborts the fetch.
    """
    loop = asyncio.get_running_loop()
    for conn in connections:
        if completed.is_set():
            return
        if loop.time() - conn.last_heard <= resume_interval_s:
            continue
        # Pace the attempts: one re-OPEN per silent interval per source.
        conn.last_heard = loop.time()
        try:
            grant = await _open_session(conn, name, proposal, open_timeout_s, 1)
        except FetchError:
            continue  # still down; the overall deadline bounds the retries
        if (
            grant.object_bytes != object_bytes
            or _granted_symbol_size(grant, config.symbol_size_bytes) != symbol_size
        ):
            raise FetchError(
                f"source {conn.index} re-granted {name!r} with different "
                f"parameters mid-transfer (object changed on the server?)"
            )
        conn.wire_session_id = grant.session_id
        if not completed.is_set():
            driver.start_fetch()


async def _open_session(
    protocol: _FetchProtocol,
    name: str,
    symbol_size: int,
    open_timeout_s: float,
    open_retries: int,
) -> OpenOkPayload:
    open_frame = encode_frame(OpenPayload(object_name=name, symbol_size=symbol_size))
    protocol.reset_grant()
    for _ in range(max(1, open_retries)):
        protocol.send_raw(open_frame)
        try:
            reply = await asyncio.wait_for(
                asyncio.shield(protocol.grant), open_timeout_s
            )
        except asyncio.TimeoutError:
            continue
        if isinstance(reply, OpenErrPayload):
            raise FetchError(f"server refused {name!r}: {reply.reason}")
        return reply
    raise FetchError(
        f"no reply to OPEN({name!r}) after {max(1, open_retries)} attempts"
    )


def fetch_object(name: str, **kwargs) -> bytes:
    """Synchronous wrapper around :func:`fetch_object_async` (runs its own loop)."""
    return asyncio.run(fetch_object_async(name, **kwargs))
