"""Seeded asyncio loopback integration: real UDP transfers end to end."""

import asyncio
import hashlib

import pytest

from repro.net.client import FetchError, fetch_object_async
from repro.net.server import (
    ObjectStore,
    PolyraptorServerProtocol,
    deterministic_object,
)


async def _start_server(store, port=0, **kwargs):
    """Bind a server on a loopback port (OS-assigned by default); return
    (transport, protocol, port)."""
    loop = asyncio.get_running_loop()
    transport, protocol = await loop.create_datagram_endpoint(
        lambda: PolyraptorServerProtocol(store, **kwargs),
        local_addr=("127.0.0.1", port),
    )
    port = transport.get_extra_info("sockname")[1]
    return transport, protocol, port


def _served(protocol, name):
    """One ``net.server.*`` counter (0 until its first count)."""
    return protocol.registry.snapshot().get(f"net.server.{name}", 0)


async def _wait_for_live_session(protocol) -> None:
    """Return once the server holds a session (a REQUEST was granted and served)."""
    for _ in range(400):
        if protocol._sessions:
            return
        await asyncio.sleep(0.005)
    pytest.fail("no session ever started")


def _store(name: str, size: int) -> ObjectStore:
    store = ObjectStore()
    store.put(name, deterministic_object(size, seed=name))
    return store


def test_clean_path_transfer():
    async def scenario():
        store = _store("clean", 150_000)
        transport, protocol, port = await _start_server(store)
        try:
            data = await fetch_object_async("clean", port=port, transfer_timeout_s=20.0)
        finally:
            transport.close()
        assert data == store.get("clean")
        assert _served(protocol, "sessions_completed") == 1
        assert _served(protocol, "malformed_frames") == 0

    asyncio.run(scenario())


def test_induced_loss_recovers_and_hash_verifies():
    async def scenario():
        store = _store("lossy", 300_000)
        transport, protocol, port = await _start_server(store)
        try:
            data = await fetch_object_async(
                "lossy", port=port, loss_rate=0.15, loss_seed=42,
                transfer_timeout_s=30.0,
            )
        finally:
            transport.close()
        expected = store.get("lossy")
        assert hashlib.sha256(data).hexdigest() == hashlib.sha256(expected).hexdigest()
        assert _served(protocol, "sessions_completed") == 1

    asyncio.run(scenario())


def test_receiver_restart_fetches_again_cleanly():
    """A receiver that dies mid-transfer and comes back gets a fresh session
    (new socket, new grant) and completes; the server survives the orphan."""

    async def scenario():
        store = _store("restart", 150_000)
        # Rate-capped by the receiver's pull pacer: the object needs >= 24 ms
        # on the wire, so a receiver killed the moment its session goes live
        # is always mid-stream, however fast the codec and the loop are.
        transport, protocol, port = await _start_server(store)
        try:
            first = asyncio.ensure_future(
                fetch_object_async("restart", port=port, transfer_timeout_s=20.0,
                                   max_rate_bps=50e6)
            )
            await _wait_for_live_session(protocol)
            assert _served(protocol, "sessions_completed") == 0, (
                "transfer finished before the kill"
            )
            first.cancel()
            with pytest.raises(asyncio.CancelledError):
                await first
            data = await fetch_object_async("restart", port=port, transfer_timeout_s=20.0)
        finally:
            transport.close()
        assert data == store.get("restart")
        assert _served(protocol, "sessions_completed") >= 1

    asyncio.run(scenario())


def test_server_restart_mid_transfer_resumes_and_completes():
    """Kill the server *after* the client has real progress and bring a
    fresh one up on the same port: the client's silent-source recovery
    re-OPENs (obtaining a brand-new grant from the restarted process),
    re-REQUESTs, and finishes the transfer with the symbols it already had."""

    async def scenario():
        store = _store("phoenix", 400_000)
        # Modest rates so the transfer takes tens of milliseconds -- long
        # enough to kill the server mid-stream deterministically.
        transport, protocol, port = await _start_server(store)
        fetch = asyncio.ensure_future(
            fetch_object_async(
                "phoenix", port=port, transfer_timeout_s=20.0,
                max_rate_bps=50e6, resume_interval_s=0.2,
            )
        )
        # Wait for a live session, then let some symbols flow.
        await _wait_for_live_session(protocol)
        await asyncio.sleep(0.02)
        drivers = list(protocol._sessions.values())
        assert drivers and drivers[0].core.symbols_sent > 0, "restart was not mid-transfer"
        assert _served(protocol, "sessions_completed") == 0, (
            "transfer finished before the restart"
        )
        transport.close()
        await asyncio.sleep(0.05)

        transport2, protocol2, _ = await _start_server(store, port=port)
        try:
            data = await fetch
        finally:
            transport2.close()
        assert data == store.get("phoenix")
        assert _served(protocol2, "sessions_completed") == 1
        # The restarted process issued its own fresh grant for the resume.
        assert _served(protocol2, "grants_issued") >= 1

    asyncio.run(scenario())


def test_same_seed_drops_identical_frames():
    """The induced-loss stream is seeded: feeding one frame sequence into
    two equally seeded client protocols drops the exact same frames --
    reproducibility is what makes lossy CI legs debuggable."""
    from repro.core.packets import SymbolPayload
    from repro.net.client import _FetchProtocol
    from repro.net.wire import encode_frame

    frames = [
        encode_frame(
            SymbolPayload(
                session_id=1, sender_host=0, block_number=0, esi=i,
                block_symbol_count=64, num_blocks=1, object_bytes=64 * 1408,
                data=None, sequence=i + 1,
            )
        )
        for i in range(200)
    ]

    def drop_pattern(seed):
        async def run():
            protocol = _FetchProtocol(loss_rate=0.2, loss_seed=seed)
            protocol.connection_made(None)
            pattern = []
            before = 0
            for frame in frames:
                protocol.datagram_received(frame, ("127.0.0.1", 1))
                pattern.append(protocol.frames_dropped > before)
                before = protocol.frames_dropped
            return pattern

        return asyncio.run(run())

    first, second, other = drop_pattern(7), drop_pattern(7), drop_pattern(8)
    assert first == second
    assert any(first)
    assert first != other


def test_unknown_object_is_refused():
    async def scenario():
        transport, protocol, port = await _start_server(_store("present", 1_000))
        try:
            with pytest.raises(FetchError, match="refused"):
                await fetch_object_async("absent", port=port)
        finally:
            transport.close()

    asyncio.run(scenario())


def test_no_server_times_out_with_fetch_error():
    async def scenario():
        with pytest.raises(FetchError, match="no reply"):
            # Port 1 on loopback: nothing listens; OPEN retries then fails.
            await fetch_object_async(
                "anything", port=1, open_timeout_s=0.05, open_retries=2,
            )

    asyncio.run(scenario())


def test_server_ignores_junk_and_keeps_serving():
    async def scenario():
        store = _store("robust", 80_000)
        transport, protocol, port = await _start_server(store)
        loop = asyncio.get_running_loop()
        junk_transport, _ = await loop.create_datagram_endpoint(
            asyncio.DatagramProtocol, remote_addr=("127.0.0.1", port)
        )
        try:
            for junk in (b"", b"garbage", b"PQ", bytes(64)):
                junk_transport.sendto(junk)
            await asyncio.sleep(0.05)
            data = await fetch_object_async("robust", port=port, transfer_timeout_s=20.0)
        finally:
            junk_transport.close()
            transport.close()
        assert data == store.get("robust")
        assert _served(protocol, "malformed_frames") >= 3  # b"" may be dropped by the OS

    asyncio.run(scenario())
