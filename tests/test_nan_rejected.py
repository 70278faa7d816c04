"""A nan time, delay or rate is refused where it enters, never simulated.

nan passes every ``x < 0`` and ``x <= 0`` check, and ``nan > until`` is
always False: a nan link delay once ran two million events at ``now == nan``
without completing a transfer, and ``run(until=...)`` never stopped on its
own.  On the wire, ``min(nan, x)`` is nan and ``remaining <= 0`` never
holds, so a fetch with a nan deadline never timed out, and a nan grant TTL
never expired a grant.  Each entry point below must raise instead.  ``Simulator.post`` checks
nothing: the fabric's delays are validated where they are built, by the
link and the port.
"""

import asyncio
from dataclasses import replace

import pytest

from repro.experiments.config import ExperimentConfig, Protocol
from repro.faults.schedule import FaultEvent, FaultKind
from repro.net.client import fetch_object_async
from repro.net.server import ObjectStore, PolyraptorServerProtocol
from repro.network.link import Link, Port
from repro.network.network import NetworkConfig
from repro.sim.engine import SimulationError, Simulator
from repro.utils.validation import check_non_negative, check_positive

NAN = float("nan")


def _network_config(**overrides):
    return replace(ExperimentConfig().network_config(Protocol.POLYRAPTOR), **overrides)


def _fetch(**overrides):
    # No server listens: a fetch that accepts its arguments fails its OPENs
    # (FetchError), and the outer guard turns a hang into a TimeoutError.
    options = {"port": 1, "open_timeout_s": 0.05, "open_retries": 1, **overrides}
    asyncio.run(asyncio.wait_for(fetch_object_async("x", **options), 5.0))


def _server(**overrides):
    return PolyraptorServerProtocol(ObjectStore(), **overrides)


ENTRY_POINTS = {
    "check_positive": lambda: check_positive("x", NAN),
    "check_non_negative": lambda: check_non_negative("x", NAN),
    "NetworkConfig.link_delay_s": lambda: _network_config(link_delay_s=NAN),
    "NetworkConfig.convergence_delay_s": lambda: _network_config(convergence_delay_s=NAN),
    "Link.delay_s": lambda: Link(Simulator(), None, NAN, name="wire"),
    "Port.rate_bps": lambda: Port(Simulator(), None, None, NAN, None),
    "FaultEvent.time": lambda: FaultEvent(NAN, FaultKind.LINK_DOWN, ("a", "b")),
    "Simulator.schedule": lambda: Simulator().schedule(NAN, print),
    "Simulator.schedule_at": lambda: Simulator().schedule_at(NAN, print),
    "Simulator.run": lambda: Simulator().run(until=NAN),
    "fetch.transfer_timeout_s": lambda: _fetch(transfer_timeout_s=NAN),
    "fetch.open_timeout_s": lambda: _fetch(open_timeout_s=NAN),
    "fetch.resume_interval_s": lambda: _fetch(resume_interval_s=NAN),
    "fetch.linger_s": lambda: _fetch(linger_s=NAN),
    "fetch.loss_rate": lambda: _fetch(loss_rate=NAN),
    "server.grant_ttl_s": lambda: _server(grant_ttl_s=NAN),
    "server.session_idle_timeout_s": lambda: _server(session_idle_timeout_s=NAN),
    "server.loss_rate": lambda: _server(loss_rate=NAN),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_nan_is_rejected(entry):
    with pytest.raises((ValueError, SimulationError)):
        ENTRY_POINTS[entry]()
