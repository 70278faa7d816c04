"""Real-network Polyraptor: asyncio UDP endpoints over the protocol core.

This package drives the exact same state machines as the simulator
(:mod:`repro.protocol`) from real sockets:

* :mod:`repro.net.wire` -- versioned binary framing for every protocol
  packet plus the OPEN handshake that maps object names to sessions;
* :mod:`repro.net.driver` -- :func:`drive`, which binds a protocol core to
  a clock and a datagram transport through the one
  :class:`~repro.protocol.driver.SessionDriver`; :class:`AsyncioClock`,
  which gives a running event loop the simulator's clock surface (``now``,
  ``schedule``) so the one :class:`~repro.utils.clock.Timer` runs on it;
  and :func:`wire_config`, the :class:`~repro.core.config.PolyraptorConfig`
  profile tuned for lossy UDP;
* :mod:`repro.net.udp` -- :func:`~repro.net.udp.open_endpoint`, the UDP
  socket both endpoints bind with, which reads many datagrams per loop
  wake-up;
* :mod:`repro.net.server` / :mod:`repro.net.client` -- the
  ``repro serve`` / ``repro fetch`` endpoints completing real loopback
  object transfers.

Only the Python standard library's ``asyncio`` is used -- no extra
dependencies.
"""

from repro.net.client import FetchError, fetch_object, fetch_object_async
from repro.net.driver import AsyncioClock, drive, wire_config
from repro.net.server import (
    DEFAULT_PORT,
    ObjectStore,
    PolyraptorServerProtocol,
    deterministic_object,
    run_server,
    sender_host_id,
)
from repro.net.wire import WireError, decode_frame, encode_frame, max_symbol_size_for_mtu

__all__ = [
    "AsyncioClock",
    "DEFAULT_PORT",
    "FetchError",
    "ObjectStore",
    "PolyraptorServerProtocol",
    "WireError",
    "decode_frame",
    "deterministic_object",
    "drive",
    "encode_frame",
    "fetch_object",
    "fetch_object_async",
    "max_symbol_size_for_mtu",
    "run_server",
    "sender_host_id",
    "wire_config",
]
