"""The draining UDP endpoint: batched reads, lossless sends, clean close."""

import asyncio
import gc
import logging
import os
import socket
import threading
import time
import warnings

import pytest

from repro.net.udp import READ_BATCH, DatagramEndpoint, open_endpoint


class _Recorder(asyncio.DatagramProtocol):
    """Groups what it receives by loop wake-up, and counts its callbacks.

    A wake-up's first datagram opens a batch and queues a marker with
    ``call_soon``; the marker runs at the start of the next loop turn, so
    every datagram delivered before it belongs to the same wake-up.
    """

    def __init__(self):
        self.batches = []
        self.errors = []
        self.lost = 0
        self._batch_open = False

    def connection_made(self, transport):
        self.transport = transport

    def datagram_received(self, data, addr):
        if not self._batch_open:
            self._batch_open = True
            self.batches.append([])
            asyncio.get_running_loop().call_soon(self._end_batch)
        self.batches[-1].append(data)

    def _end_batch(self):
        self._batch_open = False

    def error_received(self, exc):
        self.errors.append(exc)

    def connection_lost(self, exc):
        self.lost += 1

    @property
    def received(self):
        return [data for batch in self.batches for data in batch]


async def _until(predicate, what):
    for _ in range(500):
        if predicate():
            return
        await asyncio.sleep(0.002)
    pytest.fail(f"timed out waiting for {what}")


def test_one_wake_up_reads_a_batch_in_order():
    async def scenario():
        transport, recorder = await open_endpoint(_Recorder, local_addr=("127.0.0.1", 0))
        address = transport.get_extra_info("sockname")
        sent = [b"datagram-%d" % i for i in range(40)]
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as peer:
            for datagram in sent:  # all queued before the loop turns once
                peer.sendto(datagram, address)
            time.sleep(0.02)  # blocks the loop: a deferred delivery lands first
            await _until(lambda: len(recorder.received) == len(sent), "40 datagrams")
        transport.close()
        assert [len(batch) for batch in recorder.batches] == [
            READ_BATCH, READ_BATCH, len(sent) - 2 * READ_BATCH,
        ]
        assert recorder.received == sent

    asyncio.run(scenario())


def test_a_send_onto_a_full_buffer_is_flushed_later_not_lost():
    """A UDP send on loopback never blocks, so a datagram socket pair with a
    small send buffer stands in for a full NIC queue: nobody reads the far
    end until every datagram has been handed to the endpoint."""

    async def scenario():
        loop = asyncio.get_running_loop()
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_DGRAM)
        ours.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        for sock in (ours, theirs):
            sock.setblocking(False)
        sender = DatagramEndpoint(loop, ours, _Recorder())
        sent = [bytes([i]) * 512 for i in range(64)]
        for datagram in sent:
            sender.sendto(datagram)
        assert sender.get_write_buffer_size() > 0  # the socket pushed back
        recorder = _Recorder()
        receiver = DatagramEndpoint(loop, theirs, recorder)
        await _until(lambda: len(recorder.received) == len(sent), "the backlog")
        assert recorder.received == sent
        assert sender.get_write_buffer_size() == 0
        sender.close()
        receiver.close()

    asyncio.run(scenario())


def test_a_send_error_that_closes_the_endpoint_ends_the_flush():
    """The far end goes away under a backlog: the next queued send fails,
    and a protocol that closes on the error stops the flush cleanly."""

    class _CloseOnError(_Recorder):
        def error_received(self, exc):
            super().error_received(exc)
            self.transport.close()

    async def scenario():
        loop = asyncio.get_running_loop()
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_DGRAM)
        ours.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        ours.setblocking(False)
        recorder = _CloseOnError()
        sender = DatagramEndpoint(loop, ours, recorder)
        for i in range(64):
            sender.sendto(bytes([i]) * 512)
        assert sender.get_write_buffer_size() > 0
        theirs.close()
        await _until(lambda: recorder.lost, "the close")
        assert len(recorder.errors) == 1
        assert sender.get_write_buffer_size() == 0

    asyncio.run(scenario())


def test_a_read_error_goes_to_error_received():
    async def scenario():
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
            probe.bind(("127.0.0.1", 0))
            closed = probe.getsockname()  # nothing listens here once closed
        transport, recorder = await open_endpoint(_Recorder, remote_addr=closed)
        transport.sendto(b"anyone?")  # answered by an ICMP port-unreachable
        await _until(lambda: recorder.errors, "the refusal")
        transport.close()
        assert isinstance(recorder.errors[0], ConnectionRefusedError)

    asyncio.run(scenario())


def test_a_numeric_address_starts_no_lookup_thread_and_a_name_resolves():
    async def scenario():
        server, _ = await open_endpoint(_Recorder, local_addr=("127.0.0.1", 0))
        assert threading.active_count() == threads
        port = server.get_extra_info("sockname")[1]
        client, _ = await open_endpoint(_Recorder, remote_addr=("localhost", port))
        assert client.get_extra_info("peername")[1] == port
        client.close()
        server.close()

    threads = threading.active_count()
    asyncio.run(scenario())


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_close_releases_the_socket_and_warns_nothing():
    async def scenario():
        transport, recorder = await open_endpoint(_Recorder, local_addr=("127.0.0.1", 0))
        transport.close()
        transport.close()  # idempotent
        assert transport.is_closing()
        await asyncio.sleep(0)
        assert recorder.lost == 1

    before = len(os.listdir("/proc/self/fd"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        asyncio.run(scenario())
        gc.collect()
    assert len(os.listdir("/proc/self/fd")) == before
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_a_send_after_close_fails_the_hygiene_fixture(caplog):
    """A timer that outlives its endpoint shows up in the asyncio log, which
    the autouse fixture in conftest.py fails on."""

    async def scenario():
        transport, _ = await open_endpoint(_Recorder, local_addr=("127.0.0.1", 0))
        transport.close()
        transport.sendto(b"late", ("127.0.0.1", 9))

    asyncio.run(scenario())
    assert any(
        record.name == "asyncio" and record.levelno == logging.WARNING
        and "closed datagram endpoint" in record.getMessage()
        for record in caplog.get_records("call")
    )
    caplog.clear()  # the fixture would fail this test; that is the point
