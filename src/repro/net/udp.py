"""A UDP endpoint that drains its socket: one loop wake-up, many datagrams.

asyncio's datagram transport reads one datagram per socket per loop turn,
so a busy transfer paid a whole turn per symbol.  :class:`DatagramEndpoint`
offers the same transport surface to the same protocol classes, reads up to
:data:`READ_BATCH` datagrams per wake-up, and queues a send that would block
behind ``loop.add_writer`` (nothing is dropped).  Public loop API only.
"""

from __future__ import annotations

import asyncio
import logging
import socket
from collections import deque
from typing import Any, Callable, Optional, Tuple

#: Datagrams read per wake-up.  8, 16 and 64 lifted ``net_fetch``'s goodput
#: 1.18x, 1.25x and 1.23x over asyncio's one per turn; a larger batch makes
#: each loop turn, and so the loop's lag, longer (docs/PERFORMANCE.md).
READ_BATCH = 16

#: Larger than any UDP payload, so a datagram is never truncated.
_MAX_DATAGRAM = 65536

_log = logging.getLogger("asyncio")


class DatagramEndpoint(asyncio.DatagramTransport):
    """A datagram transport on ``sock``, attached to ``protocol`` at once."""

    def __init__(self, loop: asyncio.AbstractEventLoop, sock: socket.socket,
                 protocol: asyncio.DatagramProtocol, peer: Any = None) -> None:
        super().__init__({"socket": sock, "sockname": sock.getsockname(), "peername": peer})
        self._loop = loop
        self._sock: Optional[socket.socket] = sock
        self._protocol = protocol
        self._backlog: deque[Tuple[bytes, Any]] = deque()
        protocol.connection_made(self)
        loop.add_reader(sock, self._drain)

    def is_closing(self) -> bool:
        return self._sock is None

    def get_write_buffer_size(self) -> int:
        return sum(len(data) for data, _ in self._backlog)

    def sendto(self, data: bytes, addr: Any = None) -> None:
        if self._sock is None:
            _log.warning("sendto() on a closed datagram endpoint")
            return
        if not self._backlog:
            try:
                self._send(data, addr)
                return
            except (BlockingIOError, InterruptedError):
                self._loop.add_writer(self._sock, self._flush)
            except OSError as exc:
                self._protocol.error_received(exc)
                return
        self._backlog.append((bytes(data), addr))

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is None:
            return
        self._loop.remove_reader(sock)
        self._loop.remove_writer(sock)
        sock.close()
        self._backlog.clear()
        self._loop.call_soon(self._lost)

    def _lost(self) -> None:
        # Dropping the protocol and loop breaks the transport <-> protocol
        # cycle, so a closed endpoint is freed by reference counting.
        protocol, self._protocol, self._loop = self._protocol, None, None
        protocol.connection_lost(None)

    def _send(self, data: bytes, addr: Any) -> None:
        if addr is None:
            self._sock.send(data)
        else:
            self._sock.sendto(data, addr)

    def _drain(self) -> None:
        for _ in range(READ_BATCH):
            if self._sock is None:  # the protocol closed us mid-batch
                return
            try:
                data, addr = self._sock.recvfrom(_MAX_DATAGRAM)
            except (BlockingIOError, InterruptedError):
                return
            except OSError as exc:
                self._protocol.error_received(exc)
                return
            self._protocol.datagram_received(data, addr)

    def _flush(self) -> None:
        while self._backlog:  # close() in error_received empties it
            data, addr = self._backlog.popleft()
            try:
                self._send(data, addr)
            except (BlockingIOError, InterruptedError):
                self._backlog.appendleft((data, addr))
                return
            except OSError as exc:  # this datagram is lost, as in asyncio
                self._protocol.error_received(exc)
        if self._sock is not None:
            self._loop.remove_writer(self._sock)


async def open_endpoint(
    protocol_factory: Callable[[], asyncio.DatagramProtocol],
    local_addr: Optional[Tuple[str, int]] = None,
    remote_addr: Optional[Tuple[str, int]] = None,
) -> Tuple[DatagramEndpoint, asyncio.DatagramProtocol]:
    """Bind and/or connect a UDP socket; return ``(transport, protocol)``.

    Takes the place of asyncio's own datagram-endpoint factory called with
    those two address arguments (at least one is needed to pick the family).
    """
    if local_addr is None and remote_addr is None:
        raise ValueError("open_endpoint needs a local_addr or a remote_addr")
    loop = asyncio.get_running_loop()
    family, local, remote = 0, None, None
    if remote_addr is not None:
        family, remote = await _resolve(loop, remote_addr, family)
    if local_addr is not None:
        family, local = await _resolve(loop, local_addr, family)
    sock = socket.socket(family, socket.SOCK_DGRAM)
    try:
        sock.setblocking(False)
        if local is not None:
            sock.bind(local)
        if remote is not None:
            sock.connect(remote)
        protocol = protocol_factory()
        return DatagramEndpoint(loop, sock, protocol, remote), protocol
    except BaseException:
        sock.close()
        raise


async def _resolve(loop: asyncio.AbstractEventLoop, address: Tuple[str, int],
                   family: int) -> Tuple[int, Any]:
    """The first (family, sockaddr) for ``address``.

    A numeric host is parsed in place: ``loop.getaddrinfo`` runs in the
    loop's default executor, which would start a thread just to read
    "127.0.0.1".
    """
    host, port = address
    try:
        infos = socket.getaddrinfo(host, port, family, socket.SOCK_DGRAM, 0,
                                   socket.AI_NUMERICHOST)
    except socket.gaierror:
        infos = await loop.getaddrinfo(host, port, family=family, type=socket.SOCK_DGRAM)
    family, *_, sockaddr = infos[0]
    return family, sockaddr
