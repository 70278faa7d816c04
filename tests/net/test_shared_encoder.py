"""The server encodes each stored object once: ``ObjectStore.encoder``.

Every session serving one object at one symbol size reads one shared
:class:`~repro.rq.block.ObjectEncoder`.  Replacing the object drops its
encoders, but a live session keeps the one it started with and finishes on
the bytes it began with.  An object must have bytes: an empty one is
refused at ``put``, and a client that is granted one fails with
:class:`~repro.net.client.FetchError`.
"""

import asyncio
import hashlib

import pytest

from repro.net.client import FetchError, fetch_object_async
from repro.net.server import ObjectStore, PolyraptorServerProtocol, deterministic_object
from repro.net.wire import OpenOkPayload, OpenPayload, decode_frame, encode_frame
from tests.net.test_concurrent import _start_server, _wait_for


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestObjectStore:
    def test_one_encoder_per_object_and_block_shape(self):
        store = ObjectStore()
        store.put("a", deterministic_object(10_000, seed="a"))
        first = store.encoder("a", 1024, 64)
        assert store.encoder("a", 1024, 64) is first
        assert first.data is store.get("a")
        other = store.encoder("a", 512, 64)
        assert other is not first
        assert other.oti.symbol_size == 512

    def test_put_drops_only_that_names_encoders(self):
        store = ObjectStore()
        store.put("a", deterministic_object(10_000, seed="a"))
        store.put("b", deterministic_object(10_000, seed="b"))
        old_a, old_b = store.encoder("a", 1024, 64), store.encoder("b", 1024, 64)
        store.put("a", deterministic_object(10_000, seed="a2"))
        new_a = store.encoder("a", 1024, 64)
        assert new_a is not old_a
        assert new_a.data == deterministic_object(10_000, seed="a2")
        assert old_a.data == deterministic_object(10_000, seed="a")
        assert store.encoder("b", 1024, 64) is old_b

    def test_unknown_name_has_no_encoder(self):
        with pytest.raises(KeyError):
            ObjectStore().encoder("missing", 1024, 64)

    @pytest.mark.parametrize("empty", [b"", bytearray()])
    def test_empty_object_is_refused(self, empty):
        store = ObjectStore()
        with pytest.raises(ValueError, match="empty"):
            store.put("nothing", empty)
        assert len(store) == 0

    def test_put_keeps_an_immutable_copy(self):
        store = ObjectStore()
        data = bytearray(deterministic_object(5_000, seed="mutable"))
        store.put("mutable", data)
        data[:4] = b"XXXX"
        assert isinstance(store.get("mutable"), bytes)
        assert store.get("mutable") == deterministic_object(5_000, seed="mutable")


class _RecordingStore(ObjectStore):
    """A store that notes every encoder it hands a session."""

    def __init__(self):
        super().__init__()
        self.handed_out = []

    def encoder(self, name, symbol_size, max_symbols_per_block):
        encoder = super().encoder(name, symbol_size, max_symbols_per_block)
        self.handed_out.append(encoder)
        return encoder


class _ReplaceOnRequest(PolyraptorServerProtocol):
    """Replaces the object right after the first session has started on it."""

    replacement = None

    def _on_request(self, request, addr):
        super()._on_request(request, addr)
        if self.replacement is not None and self._sessions:
            self.live_encoder = next(iter(self._sessions.values())).core._encoder
            self.store.put(*self.replacement)
            self.replacement = None


def test_replaced_object_gets_a_new_encoder_while_a_live_session_finishes_on_the_old_bytes():
    old = deterministic_object(120_000, seed="v1")
    new = deterministic_object(120_000, seed="v2")

    async def scenario():
        store = ObjectStore()
        store.put("obj", old)
        transport, protocol, port = await _start_server(store, server=_ReplaceOnRequest)
        protocol.replacement = ("obj", new)
        try:
            # Loss makes the live session send repairs after the replacement.
            first = await fetch_object_async("obj", port=port, loss_rate=0.1, loss_seed=3)
            await _wait_for(lambda: not protocol._grant_info, what="first grant retired")
            second = await fetch_object_async("obj", port=port, loss_rate=0.1, loss_seed=4)
        finally:
            transport.close()
        assert _sha(first) == _sha(old)
        assert _sha(second) == _sha(new)
        assert protocol.live_encoder.data == old
        config = protocol.config
        current = store.encoder("obj", config.symbol_size_bytes, config.max_symbols_per_block)
        assert current is not protocol.live_encoder
        assert current.data == new

    asyncio.run(scenario())


def test_two_granted_symbol_sizes_get_two_encoders():
    data = deterministic_object(50_000, seed="sizes")

    async def scenario():
        store = _RecordingStore()
        store.put("sizes", data)
        transport, protocol, port = await _start_server(store)
        try:
            fetched = []
            for mtu in (600, None, 600):
                fetched.append(await fetch_object_async("sizes", port=port, mtu=mtu))
                await _wait_for(lambda: not protocol._grant_info, what="grant retired")
        finally:
            transport.close()
        assert all(blob == data for blob in fetched)
        narrow, default, narrow_again = store.handed_out
        assert narrow is narrow_again
        assert narrow is not default
        assert narrow.oti.symbol_size < default.oti.symbol_size

    asyncio.run(scenario())


class _EmptyGrantServer(asyncio.DatagramProtocol):
    """A peer that grants every OPEN an object of zero bytes."""

    def connection_made(self, transport):
        self.transport = transport

    def datagram_received(self, data, addr):
        if isinstance(decode_frame(data).payload, OpenPayload):
            reply = OpenOkPayload(session_id=1, object_bytes=0, symbol_size=0)
            self.transport.sendto(encode_frame(reply), addr)


def test_a_zero_byte_grant_fails_the_fetch_with_fetch_error():
    async def scenario():
        loop = asyncio.get_running_loop()
        transport, _ = await loop.create_datagram_endpoint(
            _EmptyGrantServer, local_addr=("127.0.0.1", 0))
        port = transport.get_extra_info("sockname")[1]
        try:
            with pytest.raises(FetchError, match="0 bytes"):
                await fetch_object_async("empty", port=port, transfer_timeout_s=5.0)
        finally:
            transport.close()

    asyncio.run(scenario())
