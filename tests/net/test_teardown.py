"""The teardown contract on real sockets: fetches and served sessions free
everything they hold, and a failed fetch leaves nothing running."""

import asyncio

import pytest

from repro.core.packets import DonePayload
from repro.net.client import FetchError, fetch_object_async
from repro.net.server import ObjectStore, PolyraptorServerProtocol, deterministic_object
from repro.net.wire import decode_frame
from repro.net.udp import open_endpoint
from repro.obs import MetricRegistry


class _SlowDoneServer(PolyraptorServerProtocol):
    """Handles each DONE 20 ms late, so the fetch is lingering when its ack lands."""

    def datagram_received(self, data, addr):
        if isinstance(decode_frame(data).payload, DonePayload):
            asyncio.get_running_loop().call_later(
                0.02, super().datagram_received, data, addr)
        else:
            super().datagram_received(data, addr)


async def _start_server(store, server=PolyraptorServerProtocol, **kwargs):
    transport, protocol = await open_endpoint(
        lambda: server(store, **kwargs), local_addr=("127.0.0.1", 0)
    )
    return transport, protocol, transport.get_extra_info("sockname")[1]


def _store(name: str, size: int) -> ObjectStore:
    store = ObjectStore()
    store.put(name, deterministic_object(size, seed=name))
    return store


def _completed(protocol) -> int:
    return protocol.registry.snapshot().get("net.server.sessions_completed", 0)


def _live_handles(loop) -> list:
    return [handle for handle in loop._scheduled if not handle.cancelled()]


def test_clean_and_lossy_fetches_leave_no_cyclic_garbage(cyclic_garbage):
    fetched = []

    async def scenario():
        store = _store("teardown", 120_000)
        transport, protocol, port = await _start_server(store)
        try:
            fetched.append(await fetch_object_async("teardown", port=port))
            fetched.append(await fetch_object_async(
                "teardown", port=port, loss_rate=0.1, loss_seed=3))
        finally:
            transport.close()
        assert _completed(protocol) == 2
        fetched[:] = [data == store.get("teardown") for data in fetched]

    assert cyclic_garbage(lambda: asyncio.run(scenario())) == {}
    assert fetched == [True, True]


def test_a_failed_fetch_leaves_no_timer_and_logs_nothing():
    """Every symbol is dropped, so the fetch times out with its stall timer
    and pull pacer armed; both must die with it, or they keep firing into
    the closed socket on the caller's loop (which asyncio logs, and the
    autouse fixture in conftest.py fails on)."""

    async def scenario():
        loop = asyncio.get_running_loop()
        transport, protocol, port = await _start_server(_store("doomed", 60_000))
        try:
            with pytest.raises(FetchError, match="timed out"):
                await fetch_object_async(
                    "doomed", port=port, loss_rate=1.0, transfer_timeout_s=0.3)
        finally:
            transport.close()
        await asyncio.sleep(0.2)  # four stall timeouts: time for a leak to show
        assert _live_handles(loop) == []
        assert _completed(protocol) == 0

    asyncio.run(scenario())


def test_done_linger_waits_on_the_ack_not_a_poll(monkeypatch):
    """The linger ends when the DONE_ACK is read, not at a sleep-poll tick;
    the server has retired the session by then."""
    registry = MetricRegistry()

    async def scenario():
        store = _store("linger", 60_000)
        transport, protocol, port = await _start_server(
            store, server=_SlowDoneServer, registry=registry)

        async def no_sleep(*_args, **_kwargs):
            raise AssertionError("the fetch path polled with asyncio.sleep")

        monkeypatch.setattr(asyncio, "sleep", no_sleep)
        try:
            data = await fetch_object_async("linger", port=port)
        finally:
            monkeypatch.undo()
            transport.close()
        assert data == store.get("linger")
        assert _completed(protocol) == 1

    asyncio.run(scenario())
    assert registry.snapshot()["net.server.grants_active"] == 0
