"""The ``repro serve`` endpoint: Polyraptor object transfers over real UDP.

The server holds a name-keyed :class:`ObjectStore` and answers three kinds
of traffic on one socket:

* ``OPEN`` handshakes, mapping an object name to a freshly granted session
  id (idempotently -- a retransmitted OPEN gets the same grant back, so a
  lost ``OPEN_OK`` costs one round trip, never a duplicate session) and
  negotiating the session's symbol size against the client's path MTU;
* ``REQUEST`` frames, spinning up one
  :class:`~repro.protocol.sender.SenderCore` per session exactly like the
  simulator's agent does on a fetch request (duplicates are ignored);
* ``PULL`` / ``DONE`` frames for the live sessions.

Sessions have a real lifecycle: a grant is retired the moment its session
completes (so a later re-fetch of the same object gets a *new* session id),
grants that never progress to a transfer expire after a TTL, sessions whose
client went silent are reaped after an idle timeout, and a
``max_concurrent_sessions`` cap answers excess OPENs with
``OPEN_ERR code=busy`` instead of growing without bound.  A periodic sweep
on the event loop enforces the TTL and idle limits; every lifecycle event
is counted in a :class:`~repro.obs.MetricRegistry` so ``repro serve
--telemetry`` can export the server's aggregate state.

Junk datagrams are counted and dropped -- :mod:`repro.net.wire` decoding is
total -- so the server survives port scans and version-skewed peers.  An
optional seeded receive-loss rate drops arriving frames to exercise the
protocol's recovery paths in integration tests without real congestion.
"""

from __future__ import annotations

import asyncio
import hashlib
import random
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from repro.core.config import PolyraptorConfig
from repro.core.packets import DonePayload, PullPayload, RequestPayload
from repro.net.driver import AsyncioClock, drive, wire_config
from repro.net.wire import (
    OPEN_ERR_BAD_SYMBOL_SIZE,
    OPEN_ERR_BUSY,
    OPEN_ERR_UNKNOWN_OBJECT,
    OpenErrPayload,
    OpenOkPayload,
    OpenPayload,
    WireError,
    decode_frame,
    encode_frame,
    max_symbol_size_for_mtu,
)
from repro.obs import MetricRegistry
from repro.protocol.actions import KIND_DATA, SendPacket
from repro.protocol.driver import SessionDriver
from repro.protocol.sender import SenderCore
from repro.utils.validation import check_positive, check_probability

#: Default UDP port of ``repro serve``.
DEFAULT_PORT = 9109

#: Host ids stamped into protocol payloads on the wire.  The real network
#: addresses peers by (ip, port); the protocol-level ids only distinguish
#: the ends of a session.  The client is host 1; the N replica holders of a
#: multi-source fetch take the even ids 0, 2, 4, ... (see
#: :func:`sender_host_id`), so a single-source session keeps the historical
#: server id 0 and no sender ever collides with the client.
SERVER_HOST_ID = 0
CLIENT_HOST_ID = 1

#: Default lifetime of a grant that never progresses to a completed
#: transfer, and default idle bound on a session whose client went silent.
DEFAULT_GRANT_TTL_S = 30.0
DEFAULT_SESSION_IDLE_S = 30.0

Address = Tuple[str, int]


def sender_host_id(sender_index: int) -> int:
    """The protocol host id a replica holder uses for ``sender_index``.

    Even ids (0, 2, 4, ...) keep every sender distinct from the client's
    fixed id 1 for any number of sources, while index 0 maps to the
    historical :data:`SERVER_HOST_ID`.
    """
    return 2 * sender_index


def deterministic_object(size: int, seed: str = "repro") -> bytes:
    """``size`` bytes derived from ``seed`` by a SHA-256 counter stream.

    The same (size, seed) always yields the same bytes, so a CI server and
    its checking script can agree on the expected hash without shipping a
    fixture file.
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    chunks = []
    produced = 0
    counter = 0
    while produced < size:
        block = hashlib.sha256(f"{seed}:{counter}".encode("utf-8")).digest()
        chunks.append(block)
        produced += len(block)
        counter += 1
    return b"".join(chunks)[:size]


class ObjectStore:
    """Named objects available for serving."""

    def __init__(self) -> None:
        self._objects: Dict[str, bytes] = {}

    def put(self, name: str, data: bytes) -> None:
        """Add (or replace) one named object."""
        self._objects[name] = data

    def get(self, name: str) -> Optional[bytes]:
        """The object's bytes, or None if the name is unknown."""
        return self._objects.get(name)

    def names(self) -> list[str]:
        """All stored object names, sorted."""
        return sorted(self._objects)

    def __len__(self) -> int:
        return len(self._objects)


@dataclass
class _Grant:
    """One OPEN grant: the session id bound to (client address, object name).

    ``created_at`` is refreshed by retransmitted OPENs and by the REQUEST
    that starts the transfer, so the TTL measures *inactivity*, not age.
    """

    session_id: int
    name: str
    symbol_size: int
    addr: Address
    created_at: float


class PolyraptorServerProtocol(asyncio.DatagramProtocol):
    """One UDP socket serving any number of concurrent fetch sessions."""

    def __init__(
        self,
        store: ObjectStore,
        config: Optional[PolyraptorConfig] = None,
        loss_rate: float = 0.0,
        loss_seed: int = 0,
        max_sessions: Optional[int] = None,
        max_concurrent_sessions: Optional[int] = None,
        grant_ttl_s: float = DEFAULT_GRANT_TTL_S,
        session_idle_timeout_s: float = DEFAULT_SESSION_IDLE_S,
        mtu: Optional[int] = None,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        self.store = store
        self.config = config if config is not None else wire_config()
        self._loss_rate = check_probability("loss_rate", loss_rate)
        self._loss_rng = random.Random(loss_seed)
        self._max_sessions = max_sessions
        self._max_concurrent = max_concurrent_sessions
        self.grant_ttl_s = check_positive("grant_ttl_s", grant_ttl_s)
        self.session_idle_timeout_s = check_positive(
            "session_idle_timeout_s", session_idle_timeout_s
        )
        self._symbol_size_cap = self.config.symbol_size_bytes
        if mtu is not None:
            fitting = max_symbol_size_for_mtu(mtu)
            if fitting <= 0:
                raise ValueError(f"mtu {mtu} cannot carry any symbol payload")
            self._symbol_size_cap = min(self._symbol_size_cap, fitting)
        self.registry = registry if registry is not None else MetricRegistry()
        self.transport: Optional[asyncio.DatagramTransport] = None
        self.clock: Optional[AsyncioClock] = None
        #: OPEN idempotency: (addr, name) -> live grant; session id -> same
        #: grant for REQUEST lookup.  Both retire together.
        self._grants: Dict[Tuple[Address, str], _Grant] = {}
        self._grant_info: Dict[int, _Grant] = {}
        self._next_session_id = 1
        #: live sender drivers, keyed by (addr, session id)
        self._sessions: Dict[Tuple[Address, int], SessionDriver] = {}
        self._session_activity: Dict[Tuple[Address, int], float] = {}
        self._sweep_handle: Optional[Any] = None
        #: set once ``max_sessions`` sessions have completed
        self.finished = asyncio.Event()

    # Observability ------------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        self.registry.counter(f"net.server.{name}").increment(amount)

    def _update_gauges(self) -> None:
        self.registry.gauge("net.server.grants_active").set(len(self._grant_info))
        self.registry.gauge("net.server.sessions_active").set(len(self._sessions))

    def _fold_session_stats(self, core: SenderCore) -> None:
        """Fold one retiring session's core counters into the aggregates."""
        self._count("symbols_sent", core.symbols_sent)
        self._count("repair_symbols_sent", core.repair_symbols_sent)
        self._count("pulls_received", core.pulls_received)

    # asyncio plumbing ---------------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        self.clock = AsyncioClock(asyncio.get_running_loop())
        self._schedule_sweep()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if self._sweep_handle is not None:
            self._sweep_handle.cancel()
            self._sweep_handle = None
        for driver in self._sessions.values():
            driver.close()
        self._sessions.clear()
        self._session_activity.clear()

    def error_received(self, exc: Exception) -> None:  # pragma: no cover - OS-dependent
        pass

    def datagram_received(self, data: bytes, addr: Address) -> None:
        if self._loss_rate > 0.0 and self._loss_rng.random() < self._loss_rate:
            self._count("frames_dropped")
            return
        try:
            frame = decode_frame(data)
        except WireError:
            self._count("malformed_frames")
            return
        payload = frame.payload
        if isinstance(payload, OpenPayload):
            self._on_open(payload, addr)
        elif isinstance(payload, RequestPayload):
            self._on_request(payload, addr)
        elif isinstance(payload, PullPayload):
            key = (addr, payload.session_id)
            driver = self._sessions.get(key)
            if driver is not None:
                self._session_activity[key] = self.clock.now
                driver.on_pull(payload)
        elif isinstance(payload, DonePayload):
            key = (addr, payload.session_id)
            driver = self._sessions.get(key)
            if driver is not None:
                self._session_activity[key] = self.clock.now
                driver.on_done(payload)
        else:
            # A client-bound frame echoed back at us; ignore.
            self._count("malformed_frames")

    # Handshake ---------------------------------------------------------------

    def _refuse(self, addr: Address, code: int, reason: str) -> None:
        self._sendto(encode_frame(OpenErrPayload(reason=reason, code=code)), addr)

    def _on_open(self, open_req: OpenPayload, addr: Address) -> None:
        self._count("opens")
        data = self.store.get(open_req.object_name)
        if data is None:
            self._refuse(
                addr,
                OPEN_ERR_UNKNOWN_OBJECT,
                f"unknown object {open_req.object_name!r}",
            )
            return
        now = self.clock.now
        key = (addr, open_req.object_name)
        grant = self._grants.get(key)
        if grant is None:
            if (
                self._max_concurrent is not None
                and len(self._grant_info) >= self._max_concurrent
            ):
                self._count("busy_rejections")
                self._refuse(
                    addr,
                    OPEN_ERR_BUSY,
                    f"busy: {len(self._grant_info)} of "
                    f"{self._max_concurrent} sessions in use",
                )
                return
            symbol_size = self._symbol_size_cap
            if open_req.symbol_size > 0:
                symbol_size = min(symbol_size, open_req.symbol_size)
            if symbol_size <= 0:
                self._refuse(
                    addr,
                    OPEN_ERR_BAD_SYMBOL_SIZE,
                    f"unusable symbol size {open_req.symbol_size}",
                )
                return
            grant = _Grant(
                session_id=self._next_session_id,
                name=open_req.object_name,
                symbol_size=symbol_size,
                addr=addr,
                created_at=now,
            )
            self._next_session_id += 1
            self._grants[key] = grant
            self._grant_info[grant.session_id] = grant
            self._count("grants_issued")
            self._update_gauges()
        else:
            # Retransmitted OPEN: same grant, refreshed TTL.
            grant.created_at = now
        self._sendto(
            encode_frame(
                OpenOkPayload(
                    session_id=grant.session_id,
                    object_bytes=len(data),
                    symbol_size=grant.symbol_size,
                )
            ),
            addr,
        )

    # Session lifecycle -------------------------------------------------------

    def _session_config(self, grant: _Grant) -> PolyraptorConfig:
        if grant.symbol_size == self.config.symbol_size_bytes:
            return self.config
        return replace(self.config, symbol_size_bytes=grant.symbol_size)

    def _on_request(self, request: RequestPayload, addr: Address) -> None:
        key = (addr, request.session_id)
        now = self.clock.now
        if key in self._sessions:
            # Duplicate REQUEST (client retransmit); the live session stands.
            self._session_activity[key] = now
            return
        grant = self._grant_info.get(request.session_id)
        if grant is None or grant.addr != addr:
            # Unknown or foreign session id: nothing to serve.  A client
            # recovering from our restart re-OPENs first, so this stays rare.
            return
        object_data = self.store.get(grant.name)
        if object_data is None or len(object_data) != request.object_bytes:
            # The object vanished or the grant is stale: reject the mismatch.
            return
        try:
            core = SenderCore(
                config=self._session_config(grant),
                session_id=request.session_id,
                object_bytes=request.object_bytes,
                receiver_host_ids=[request.receiver_host],
                local_host=sender_host_id(request.sender_index),
                sender_index=request.sender_index,
                num_senders=request.num_senders,
                object_data=object_data if self.config.carry_payload else None,
            )
        except ValueError:
            # e.g. sender_index >= num_senders from a confused client.
            self._count("malformed_frames")
            return
        driver = drive(
            core,
            self.clock,
            transmit=lambda action, _addr=addr: self._transmit(action, _addr),
            on_complete=lambda _t, _key=key: self._session_done(_key),
        )
        grant.created_at = now
        self._sessions[key] = driver
        self._session_activity[key] = now
        self._count("sessions_started")
        self._update_gauges()
        driver.start()

    def _retire_grant(self, session_id: int) -> None:
        grant = self._grant_info.pop(session_id, None)
        if grant is not None:
            self._grants.pop((grant.addr, grant.name), None)

    def _session_done(self, key: Tuple[Address, int]) -> None:
        driver = self._sessions.pop(key, None)
        if driver is None:
            return
        driver.close()
        self._session_activity.pop(key, None)
        self._retire_grant(key[1])
        self._fold_session_stats(driver.core)
        self._count("sessions_completed")
        self._update_gauges()
        completed = self.registry.counter("net.server.sessions_completed").value
        if self._max_sessions is not None and completed >= self._max_sessions:
            self.finished.set()

    # TTL / idle sweep ---------------------------------------------------------

    @property
    def _sweep_interval_s(self) -> float:
        return max(0.05, min(self.grant_ttl_s, self.session_idle_timeout_s) / 4.0)

    def _schedule_sweep(self) -> None:
        self._sweep_handle = self.clock.schedule(self._sweep_interval_s, self._sweep)

    def _sweep(self) -> None:
        """Reap idle sessions and expired grants; reschedules itself."""
        now = self.clock.now
        for key, driver in list(self._sessions.items()):
            last = self._session_activity.get(key, now)
            if now - last > self.session_idle_timeout_s:
                del self._sessions[key]
                self._session_activity.pop(key, None)
                driver.close()
                self._retire_grant(key[1])
                self._fold_session_stats(driver.core)
                self._count("sessions_reaped")
        for session_id, grant in list(self._grant_info.items()):
            if (grant.addr, session_id) in self._sessions:
                continue  # a live transfer keeps its grant
            if now - grant.created_at > self.grant_ttl_s:
                self._retire_grant(session_id)
                self._count("grants_expired")
        self._update_gauges()
        self._schedule_sweep()

    # Output ------------------------------------------------------------------

    def _transmit(self, action: SendPacket, addr: Address) -> None:
        sent_at = self.clock.now if action.kind == KIND_DATA else 0.0
        self._sendto(encode_frame(action.payload, sent_at=sent_at), addr)

    def _sendto(self, datagram: bytes, addr: Address) -> None:
        if self.transport is not None:
            self.transport.sendto(datagram, addr)


async def run_server(
    store: ObjectStore,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    config: Optional[PolyraptorConfig] = None,
    loss_rate: float = 0.0,
    loss_seed: int = 0,
    max_sessions: Optional[int] = None,
    ready: Optional[asyncio.Event] = None,
    max_concurrent_sessions: Optional[int] = None,
    grant_ttl_s: float = DEFAULT_GRANT_TTL_S,
    session_idle_timeout_s: float = DEFAULT_SESSION_IDLE_S,
    mtu: Optional[int] = None,
    registry: Optional[MetricRegistry] = None,
) -> PolyraptorServerProtocol:
    """Serve the store on (host, port) until ``max_sessions`` complete.

    With ``max_sessions=None`` the coroutine serves forever (cancel it to
    stop).  ``ready`` is set once the socket is bound, for tests that must
    not race the bind.  Returns the protocol instance; its ``registry``
    holds the run's statistics.
    """
    # Built before the bind: a protocol that rejects its options must not
    # leave a bound socket behind (asyncio does not close it for us).
    protocol = PolyraptorServerProtocol(
        store,
        config=config,
        loss_rate=loss_rate,
        loss_seed=loss_seed,
        max_sessions=max_sessions,
        max_concurrent_sessions=max_concurrent_sessions,
        grant_ttl_s=grant_ttl_s,
        session_idle_timeout_s=session_idle_timeout_s,
        mtu=mtu,
        registry=registry,
    )
    loop = asyncio.get_running_loop()
    transport, _ = await loop.create_datagram_endpoint(
        lambda: protocol, local_addr=(host, port)
    )
    if ready is not None:
        ready.set()
    try:
        await protocol.finished.wait()
    finally:
        transport.close()
    return protocol
