"""A nan time, delay or rate is refused where it enters, never simulated.

nan passes every ``x < 0`` and ``x <= 0`` check, and ``nan > until`` is
always False: a nan link delay once ran two million events at ``now == nan``
without completing a transfer, and ``run(until=...)`` never stopped on its
own.  Each entry point below must raise instead.  ``Simulator.post`` checks
nothing: the fabric's delays are validated where they are built, by the
link and the port.
"""

from dataclasses import replace

import pytest

from repro.experiments.config import ExperimentConfig, Protocol
from repro.faults.schedule import FaultEvent, FaultKind
from repro.network.link import Link, Port
from repro.network.network import NetworkConfig
from repro.sim.engine import SimulationError, Simulator
from repro.utils.validation import check_non_negative, check_positive

NAN = float("nan")


def _network_config(**overrides):
    return replace(ExperimentConfig().network_config(Protocol.POLYRAPTOR), **overrides)


ENTRY_POINTS = {
    "check_positive": lambda: check_positive("x", NAN),
    "check_non_negative": lambda: check_non_negative("x", NAN),
    "NetworkConfig.link_delay_s": lambda: _network_config(link_delay_s=NAN),
    "NetworkConfig.convergence_delay_s": lambda: _network_config(convergence_delay_s=NAN),
    "NetworkConfig.convergence_jitter": lambda: _network_config(convergence_jitter=NAN),
    "Link.delay_s": lambda: Link(Simulator(), None, NAN, name="wire"),
    "Port.rate_bps": lambda: Port(Simulator(), None, None, NAN, None),
    "FaultEvent.time": lambda: FaultEvent(NAN, FaultKind.LINK_DOWN, ("a", "b")),
    "Simulator.schedule": lambda: Simulator().schedule(NAN, print),
    "Simulator.schedule_at": lambda: Simulator().schedule_at(NAN, print),
    "Simulator.run": lambda: Simulator().run(until=NAN),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_nan_is_rejected(entry):
    with pytest.raises((ValueError, SimulationError)):
        ENTRY_POINTS[entry]()
