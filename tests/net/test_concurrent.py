"""Concurrent, multi-source server behaviour: session lifecycle, grant
hygiene, busy caps, TTL/idle reaping and MTU negotiation over real UDP."""

import asyncio
import collections
import hashlib

import pytest

from repro.net.client import FetchError, fetch_object_async
from repro.rq.backend import CodecContext, default_context
from repro.net.server import (
    ObjectStore,
    PolyraptorServerProtocol,
    deterministic_object,
)
from repro.net.wire import (
    MAGIC,
    OPEN_ERR_BUSY,
    OpenErrPayload,
    OpenOkPayload,
    OpenPayload,
    decode_frame,
    encode_frame,
    max_symbol_size_for_mtu,
)
from repro.net.udp import open_endpoint


async def _start_server(store, server=PolyraptorServerProtocol, **kwargs):
    transport, protocol = await open_endpoint(
        lambda: server(store, **kwargs), local_addr=("127.0.0.1", 0)
    )
    port = transport.get_extra_info("sockname")[1]
    return transport, protocol, port


class _GrantRecorder(PolyraptorServerProtocol):
    """A server that notes the session id of every OPEN_OK it sends, i.e.
    the ids its clients are granted."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.granted_ids = []

    def _sendto(self, datagram, addr):
        payload = decode_frame(datagram).payload
        if isinstance(payload, OpenOkPayload):
            self.granted_ids.append(payload.session_id)
        super()._sendto(datagram, addr)


def _served(protocol, name):
    """One ``net.server.*`` counter (0 until its first count)."""
    return protocol.registry.snapshot().get(f"net.server.{name}", 0)


async def _wait_for(predicate, timeout_s=5.0, what="condition"):
    """Poll ``predicate()`` until true (events like grant retirement land a
    beat after the fetch coroutine returns)."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while not predicate():
        if loop.time() > deadline:
            pytest.fail(f"timed out waiting for {what}")
        await asyncio.sleep(0.01)


class _Probe(asyncio.DatagramProtocol):
    """A bare socket that decodes whatever the server sends back."""

    def connection_made(self, transport):
        self.transport = transport
        self.replies = asyncio.Queue()

    def datagram_received(self, data, addr):
        self.replies.put_nowait(decode_frame(data).payload)


async def _raw_open(port, name, symbol_size=0):
    """Send one OPEN and return the server's reply payload."""
    loop = asyncio.get_running_loop()
    transport, probe = await loop.create_datagram_endpoint(
        _Probe, remote_addr=("127.0.0.1", port)
    )
    try:
        probe.transport.sendto(
            encode_frame(OpenPayload(object_name=name, symbol_size=symbol_size))
        )
        return await asyncio.wait_for(probe.replies.get(), 2.0)
    finally:
        transport.close()


def test_eight_way_concurrent_fetches_leave_no_state_behind():
    """The acceptance stress: 8 simultaneous sessions on one socket, every
    transfer hash-verified, and afterwards the server's grant and session
    maps are empty -- no leaked grants, no reused session ids."""

    async def scenario():
        store = ObjectStore()
        names = [f"obj-{i}" for i in range(8)]
        for name in names:
            store.put(name, deterministic_object(60_000, seed=name))
        transport, protocol, port = await _start_server(store, server=_GrantRecorder)
        try:
            blobs = await asyncio.gather(
                *(
                    fetch_object_async(
                        name, port=port, transfer_timeout_s=30.0, loss_seed=i
                    )
                    for i, name in enumerate(names)
                )
            )
            for name, blob in zip(names, blobs):
                assert hashlib.sha256(blob).digest() == hashlib.sha256(
                    store.get(name)
                ).digest()
            await _wait_for(
                lambda: _served(protocol, "sessions_completed") == 8
                and not protocol._grants
                and not protocol._grant_info
                and not protocol._sessions,
                what="all sessions retired",
            )
        finally:
            transport.close()
        # A retransmitted OPEN is answered with the same grant again, so
        # count distinct ids: one per fetch, none shared.
        ids = protocol.granted_ids
        assert len(set(ids)) == 8, f"session ids were reused: {ids}"
        snapshot = protocol.registry.snapshot()
        assert snapshot["net.server.sessions_completed"] == 8
        assert snapshot["net.server.grants_active"] == 0
        assert snapshot["net.server.sessions_active"] == 0
        assert snapshot["net.server.symbols_sent"] > 0

    asyncio.run(scenario())


def test_concurrent_fetches_of_one_object_encode_each_block_once(monkeypatch):
    """8 simultaneous lossy fetches of one object plus a re-fetch share the
    store's encoder: each block is built once (``rq.blocks_encoded`` is flat
    in concurrency), each repair below 2K is made by the kernel once, and
    every fetch is hash-verified."""
    made = collections.Counter()
    encode = CodecContext.repair_symbols

    def counting(self, encoder, esis):
        made.update((encoder, int(esi)) for esi in esis)
        return encode(self, encoder, esis)

    monkeypatch.setattr(CodecContext, "repair_symbols", counting)
    data = deterministic_object(200_000, seed="shared")

    async def scenario():
        store = ObjectStore()
        store.put("shared", data)
        before = default_context().blocks_encoded
        transport, protocol, port = await _start_server(store)
        try:
            blobs = await asyncio.gather(*(
                fetch_object_async("shared", port=port, loss_rate=0.1, loss_seed=i)
                for i in range(8)
            ))
            await _wait_for(lambda: not protocol._sessions, what="concurrent sessions retired")
            blobs.append(await fetch_object_async("shared", port=port, loss_rate=0.1,
                                                  loss_seed=8))
            await _wait_for(lambda: _served(protocol, "sessions_completed") == 9,
                            what="re-fetch retired")
        finally:
            transport.close()
        config = protocol.config
        oti = store.encoder("shared", config.symbol_size_bytes,
                            config.max_symbols_per_block).oti
        assert all(hashlib.sha256(blob).digest() == hashlib.sha256(data).digest()
                   for blob in blobs)
        assert default_context().blocks_encoded - before == oti.num_source_blocks
        return _served(protocol, "repair_symbols_sent")

    repairs_sent = asyncio.run(scenario())
    assert made, "no fetch needed a repair symbol"
    below_2k = {key: count for key, count in made.items()
                if key[1] < 2 * key[0].num_source_symbols}
    assert set(below_2k.values()) == {1}
    assert repairs_sent > sum(made.values())


def test_sequential_fetches_get_distinct_session_ids():
    """Regression for the grant leak: completing a session must retire its
    grant, so re-fetching the same object gets a fresh session id instead of
    the stale grant's."""

    async def scenario():
        store = ObjectStore()
        store.put("twice", deterministic_object(40_000, seed="twice"))
        transport, protocol, port = await _start_server(store, server=_GrantRecorder)
        try:
            first = await fetch_object_async("twice", port=port, transfer_timeout_s=20.0)
            await _wait_for(
                lambda: not protocol._grant_info, what="first grant retired"
            )
            second = await fetch_object_async("twice", port=port, transfer_timeout_s=20.0)
            await _wait_for(
                lambda: not protocol._grant_info, what="second grant retired"
            )
        finally:
            transport.close()
        assert first == second == store.get("twice")
        assert len(set(protocol.granted_ids)) == 2

    asyncio.run(scenario())


def test_completed_sessions_leave_no_per_session_state():
    """A server without ``max_sessions`` runs for ever, so whatever it keeps
    per grant or per session must go when the session ends: after N
    completed fetches every dict, list, set and deque it holds is empty."""

    async def scenario():
        store = ObjectStore()
        names = [f"obj-{i}" for i in range(3)]
        for name in names:
            store.put(name, deterministic_object(30_000, seed=name))
        transport, protocol, port = await _start_server(store)
        try:
            await fetch_object_async(names[0], port=port, transfer_timeout_s=20.0)
            await asyncio.gather(
                *(fetch_object_async(name, port=port, transfer_timeout_s=20.0)
                  for name in names)
            )
            await _wait_for(
                lambda: _served(protocol, "sessions_completed") == 4
                and not protocol._grant_info,
                what="all sessions retired",
            )
        finally:
            transport.close()
        held = {
            name: value for name, value in vars(protocol).items()
            if isinstance(value, (dict, list, set, collections.deque)) and value
        }
        assert held == {}

    asyncio.run(scenario())


def test_multi_source_fetch_with_loss_hash_verifies():
    """Two replica holders, one decode: each server serves its partition of
    the symbol space and the client folds both into a single object, under
    10% induced loss on every path."""

    async def scenario():
        name, size = "replicated", 200_000
        blob = deterministic_object(size, seed=name)
        stores = []
        for _ in range(2):
            store = ObjectStore()
            store.put(name, blob)
            stores.append(store)
        s1 = await _start_server(stores[0])
        s2 = await _start_server(stores[1])
        try:
            data = await fetch_object_async(
                name,
                sources=[("127.0.0.1", s1[2]), ("127.0.0.1", s2[2])],
                loss_rate=0.10,
                loss_seed=11,
                transfer_timeout_s=30.0,
            )
            assert hashlib.sha256(data).digest() == hashlib.sha256(blob).digest()
            for _, protocol, _ in (s1, s2):
                await _wait_for(
                    lambda p=protocol: _served(p, "sessions_completed") == 1
                    and not p._grant_info,
                    what="both sources completed and retired",
                )
                assert protocol.registry.snapshot()["net.server.symbols_sent"] > 0
        finally:
            s1[0].close()
            s2[0].close()

    asyncio.run(scenario())


def test_mismatched_replicas_abort_the_fetch():
    """Sources disagreeing on the object (different bytes behind the same
    name) must fail loudly, not decode garbage."""

    async def scenario():
        small, big = ObjectStore(), ObjectStore()
        small.put("skewed", deterministic_object(10_000, seed="skewed"))
        big.put("skewed", deterministic_object(20_000, seed="skewed"))
        s1 = await _start_server(small)
        s2 = await _start_server(big)
        try:
            with pytest.raises(FetchError, match="mismatched grants"):
                await fetch_object_async(
                    "skewed",
                    sources=[("127.0.0.1", s1[2]), ("127.0.0.1", s2[2])],
                    transfer_timeout_s=5.0,
                )
        finally:
            s1[0].close()
            s2[0].close()

    asyncio.run(scenario())


def test_busy_server_refuses_excess_opens_then_recovers():
    async def scenario():
        store = ObjectStore()
        store.put("big", deterministic_object(400_000, seed="big"))
        store.put("small", deterministic_object(10_000, seed="small"))
        transport, protocol, port = await _start_server(
            store, max_concurrent_sessions=1
        )
        try:
            first = asyncio.ensure_future(
                fetch_object_async(
                    "big", port=port, transfer_timeout_s=30.0, max_rate_bps=50e6
                )
            )
            await _wait_for(lambda: protocol._sessions, what="first session live")
            with pytest.raises(FetchError, match="busy"):
                await fetch_object_async(
                    "small", port=port, open_retries=1, transfer_timeout_s=5.0
                )
            assert _served(protocol, "busy_rejections") >= 1
            data = await first
            assert data == store.get("big")
            # The cap frees up once the first session retires.
            await _wait_for(lambda: not protocol._grant_info, what="cap released")
            small = await fetch_object_async("small", port=port, transfer_timeout_s=20.0)
            assert small == store.get("small")
        finally:
            transport.close()

    asyncio.run(scenario())


def test_unstarted_grant_expires_after_ttl():
    """An OPEN that never progresses to a REQUEST must not pin server state
    forever: the sweep retires it after the TTL."""

    async def scenario():
        store = ObjectStore()
        store.put("idle", deterministic_object(5_000, seed="idle"))
        transport, protocol, port = await _start_server(
            store, grant_ttl_s=0.1, session_idle_timeout_s=10.0
        )
        try:
            reply = await _raw_open(port, "idle")
            assert isinstance(reply, OpenOkPayload)
            assert protocol._grant_info
            await _wait_for(lambda: not protocol._grant_info, what="grant expiry")
            assert _served(protocol, "grants_expired") == 1
        finally:
            transport.close()

    asyncio.run(scenario())


def test_abandoned_session_is_reaped_after_idle_timeout():
    """A client that dies mid-transfer leaves a live sender behind; the idle
    sweep must close it and retire its grant."""

    async def scenario():
        store = ObjectStore()
        store.put("orphan", deterministic_object(400_000, seed="orphan"))
        transport, protocol, port = await _start_server(
            store,
            session_idle_timeout_s=0.15,
            grant_ttl_s=10.0,
        )
        try:
            fetch = asyncio.ensure_future(
                fetch_object_async(
                    "orphan", port=port, transfer_timeout_s=30.0, max_rate_bps=50e6
                )
            )
            await _wait_for(lambda: protocol._sessions, what="session start")
            fetch.cancel()
            with pytest.raises(asyncio.CancelledError):
                await fetch
            await _wait_for(
                lambda: not protocol._sessions and not protocol._grant_info,
                what="idle reap",
            )
            assert _served(protocol, "sessions_reaped") == 1
            assert _served(protocol, "sessions_completed") == 0
        finally:
            transport.close()

    asyncio.run(scenario())


def test_open_negotiates_symbol_size():
    async def scenario():
        store = ObjectStore()
        store.put("sized", deterministic_object(5_000, seed="sized"))
        # Unconstrained server: grants exactly the client's proposal.
        transport, protocol, port = await _start_server(store)
        try:
            reply = await _raw_open(port, "sized", symbol_size=512)
            assert isinstance(reply, OpenOkPayload)
            assert reply.symbol_size == 512
        finally:
            transport.close()
        # MTU-capped server: grants its cap to a client with no preference.
        transport, protocol, port = await _start_server(store, mtu=600)
        try:
            reply = await _raw_open(port, "sized")
            assert isinstance(reply, OpenOkPayload)
            assert reply.symbol_size == max_symbol_size_for_mtu(600)
        finally:
            transport.close()

    asyncio.run(scenario())


def test_mtu_constrained_fetch_completes_end_to_end():
    """--mtu changes the negotiated symbol size, hence the whole OTI
    partitioning on both ends; the transfer must still decode byte-exact."""

    async def scenario():
        store = ObjectStore()
        store.put("narrow", deterministic_object(50_000, seed="narrow"))
        transport, protocol, port = await _start_server(store)
        try:
            data = await fetch_object_async(
                "narrow", port=port, mtu=600, transfer_timeout_s=20.0
            )
        finally:
            transport.close()
        assert data == store.get("narrow")

    asyncio.run(scenario())


def test_unusable_mtu_is_rejected_client_side():
    async def scenario():
        with pytest.raises(FetchError, match="cannot carry"):
            await fetch_object_async("anything", port=1, mtu=60)

    asyncio.run(scenario())


def test_busy_refusal_carries_the_code():
    async def scenario():
        store = ObjectStore()
        store.put("one", deterministic_object(400_000, seed="one"))
        store.put("two", deterministic_object(5_000, seed="two"))
        transport, protocol, port = await _start_server(
            store, max_concurrent_sessions=1
        )
        try:
            fetch = asyncio.ensure_future(
                fetch_object_async(
                    "one", port=port, transfer_timeout_s=30.0, max_rate_bps=50e6
                )
            )
            await _wait_for(lambda: protocol._sessions, what="first session live")
            reply = await _raw_open(port, "two")
            assert isinstance(reply, OpenErrPayload)
            assert reply.code == OPEN_ERR_BUSY
            await fetch
        finally:
            transport.close()

    asyncio.run(scenario())


#: every fact the server counts; each lives in its registry alone
SERVER_FACTS = ["sessions_completed", "sessions_reaped", "grants_expired",
                "busy_rejections", "frames_dropped", "malformed_frames"]


@pytest.mark.parametrize("fact", SERVER_FACTS)
def test_each_server_fact_is_counted_once(fact):
    """The registry counter is the only copy: no attribute shadows it."""
    protocol = PolyraptorServerProtocol(ObjectStore())
    assert not hasattr(protocol, fact)
    assert _served(protocol, fact) == 0


@pytest.mark.parametrize("datagram", [
    b"junk",
    MAGIC + bytes([2, 2]) + bytes(32),
    encode_frame(OpenOkPayload(session_id=1, object_bytes=10)),
], ids=["junk", "old-version", "client-bound"])
def test_unservable_datagrams_count_as_malformed(datagram):
    protocol = PolyraptorServerProtocol(ObjectStore())
    protocol.datagram_received(datagram, ("127.0.0.1", 9))
    assert _served(protocol, "malformed_frames") == 1
    assert _served(protocol, "frames_dropped") == 0


def test_injected_loss_counts_as_dropped_before_decoding():
    protocol = PolyraptorServerProtocol(ObjectStore(), loss_rate=1.0)
    protocol.datagram_received(b"junk", ("127.0.0.1", 9))
    assert _served(protocol, "frames_dropped") == 1
    assert _served(protocol, "malformed_frames") == 0
