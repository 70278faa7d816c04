"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
from collections import Counter
from functools import partial

import pytest

try:  # hypothesis is an optional test dependency (the rq property tests skip
    # without it); when present, keep its on-disk state (example database,
    # constants cache) out of the repo: no stray ``.hypothesis/`` after a run.
    # ``derandomize`` seeds every property test from its own source, so a
    # tier-1 run draws the same examples every time: its verdict is a
    # function of the commit, not of the run.
    import tempfile

    from hypothesis import configuration as _hypothesis_configuration
    from hypothesis import settings as _hypothesis_settings

    _hypothesis_configuration.set_hypothesis_home_dir(
        tempfile.mkdtemp(prefix="hypothesis-home-")
    )
    _hypothesis_settings.register_profile("repro", database=None, derandomize=True)
    _hypothesis_settings.load_profile("repro")
except ImportError:  # pragma: no cover
    pass

from repro.core.config import PolyraptorConfig
from repro.network.network import Network, NetworkConfig
from repro.network.routing import RoutingMode
from repro.network.topology import FatTreeTopology
from repro.rq.backend import CodecContext
from repro.rq.block import ObjectDecoder, ObjectEncoder
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.transport.base import TransferRegistry
from repro.transport.polyraptor import PolyraptorAgent
from repro.transport.tcp.agent import TcpAgent


class _Testbed:
    """What both testbeds share: a transfer registry kept the runner's way."""

    protocol = ""

    def record(self, transfer_id: int, transfer_bytes: int, label: str = ""):
        """Record a transfer's start now; return the ``on_complete`` that ends it."""
        self.registry.record_start(transfer_id, transfer_bytes, self.sim.now,
                                   protocol=self.protocol, label=label)
        return partial(self.registry.record_completion, transfer_id)

    def host_id(self, name: str) -> int:
        return self.network.host_id(name)

    def run(self, until: float = 5.0) -> None:
        self.sim.run(until=until)


class PolyraptorTestbed(_Testbed):
    """A small FatTree with Polyraptor agents on every host."""

    protocol = "polyraptor"

    def __init__(self, seed: int = 1, config: PolyraptorConfig | None = None,
                 network_config: NetworkConfig | None = None, k: int = 4) -> None:
        self.sim = Simulator()
        self.topology = FatTreeTopology(k)
        self.network = Network(
            self.sim,
            self.topology,
            network_config or NetworkConfig(),
            RandomStreams(seed),
        )
        self.registry = TransferRegistry()
        self.config = config or PolyraptorConfig()
        self.codec = CodecContext()
        self.agents = {
            host.name: PolyraptorAgent(self.sim, host, self.config, codec_context=self.codec)
            for host in self.network.hosts
        }


class TcpTestbed(_Testbed):
    """A small FatTree with TCP agents on every host (drop-tail + ECMP)."""

    protocol = "tcp"

    def __init__(self, seed: int = 1, k: int = 4) -> None:
        self.sim = Simulator()
        self.topology = FatTreeTopology(k)
        self.network = Network(
            self.sim,
            self.topology,
            NetworkConfig(switch_queue="droptail", routing_mode=RoutingMode.ECMP_FLOW),
            RandomStreams(seed),
        )
        self.registry = TransferRegistry()
        self.agents = {
            host.name: TcpAgent(self.sim, host)
            for host in self.network.hosts
        }


def encode_all(data, symbol_size, max_symbols_per_block, repairs_per_block=0, context=None):
    """``(oti, symbols)``: every block's source symbols, then ``repairs_per_block``
    repairs per block, each block in one ``symbol_block`` pass as a sender does."""
    encoder = ObjectEncoder(data, symbol_size=symbol_size,
                            max_symbols_per_block=max_symbols_per_block, context=context)
    oti = encoder.oti
    counts = [oti.block_symbol_count(block) for block in range(oti.num_source_blocks)]
    symbols = []
    for block, k in enumerate(counts):
        symbols.extend(encoder.symbol_block(block, list(range(k))))
    for block, k in enumerate(counts):
        symbols.extend(encoder.symbol_block(block, list(range(k, k + repairs_per_block))))
    return oti, symbols


def decode_all(oti, symbols, context=None) -> bytes:
    """The object decoded from ``symbols`` (raises ``DecodeFailure`` if short)."""
    decoder = ObjectDecoder(oti, context=context)
    decoder.add_symbols(symbols)
    return decoder.decode()


def _repro_cyclic_garbage(action) -> Counter:
    """Run ``action()`` with the cycle collector off; count what only it could free.

    Returns the ``repro.*`` objects, by type name, that ``action`` left
    unreachable but still alive -- held by reference cycles -- once it
    returned and dropped its results.  The teardown contract is that this
    is empty: every run, fetch and session frees its object graph by
    reference counting the moment it ends.
    """
    gc.collect()
    gc.garbage.clear()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        action()
        gc.collect()
        return Counter(
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in gc.garbage
            if type(obj).__module__.startswith("repro.")
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


@pytest.fixture
def cyclic_garbage():
    """:func:`_repro_cyclic_garbage`, for tests that assert the teardown contract."""
    return _repro_cyclic_garbage


@pytest.fixture
def polyraptor_testbed() -> PolyraptorTestbed:
    """A fresh 16-host Polyraptor testbed."""
    return PolyraptorTestbed()


@pytest.fixture
def tcp_testbed() -> TcpTestbed:
    """A fresh 16-host TCP testbed."""
    return TcpTestbed()
