"""Shared fixtures for the test suite."""

from __future__ import annotations

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

from repro.core.agent import PolyraptorAgent
from repro.core.config import PolyraptorConfig
from repro.network.network import Network, NetworkConfig
from repro.network.routing import RoutingMode
from repro.network.topology import FatTreeTopology
from repro.rq.backend import CodecContext
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.transport.base import TransferRegistry
from repro.transport.tcp.agent import TcpAgent
from repro.transport.tcp.config import TcpConfig


class PolyraptorTestbed:
    """A small FatTree with Polyraptor agents on every host."""

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
        self.codec = CodecContext(self.config.codec_backend)
        self.agents = {
            host.name: PolyraptorAgent(self.sim, host, self.config, self.registry,
                                       codec_context=self.codec)
            for host in self.network.hosts
        }

    def host_id(self, name: str) -> int:
        return self.network.host_id(name)

    def run(self, until: float = 5.0) -> None:
        self.sim.run(until=until)


class TcpTestbed:
    """A small FatTree with TCP agents on every host (drop-tail + ECMP)."""

    def __init__(self, seed: int = 1, config: TcpConfig | None = None, k: int = 4) -> None:
        self.sim = Simulator()
        self.topology = FatTreeTopology(k)
        self.network = Network(
            self.sim,
            self.topology,
            NetworkConfig(switch_queue="droptail", routing_mode=RoutingMode.ECMP_FLOW),
            RandomStreams(seed),
        )
        self.registry = TransferRegistry()
        self.config = config or TcpConfig()
        self.agents = {
            host.name: TcpAgent(self.sim, host, self.config, self.registry)
            for host in self.network.hosts
        }

    def host_id(self, name: str) -> int:
        return self.network.host_id(name)

    def run(self, until: float = 5.0) -> None:
        self.sim.run(until=until)


@pytest.fixture(autouse=True)
def _isolated_home(tmp_path_factory, monkeypatch):
    """Point ``Path.home()`` at a per-session temp dir.

    Anything that resolves ``~/.cache/repro`` (the persistent plan cache,
    via :func:`repro.experiments.parallel.default_plan_cache_path`) then
    reads and writes inside pytest's temp tree instead of the real home
    directory, so test runs leave no stray state behind.
    """
    home = tmp_path_factory.getbasetemp() / "home"
    home.mkdir(exist_ok=True)
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.setenv("USERPROFILE", str(home))  # Path.home() on Windows


@pytest.fixture
def polyraptor_testbed() -> PolyraptorTestbed:
    """A fresh 16-host Polyraptor testbed."""
    return PolyraptorTestbed()


@pytest.fixture
def tcp_testbed() -> TcpTestbed:
    """A fresh 16-host TCP testbed."""
    return TcpTestbed()
