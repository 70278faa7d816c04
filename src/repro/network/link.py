"""Egress ports and links.

A :class:`Port` is an egress interface of a node: it owns a queue discipline
and a transmitter that serialises one packet at a time at the link rate.  A
:class:`Link` is the unidirectional wire between a port and the remote node:
it only adds propagation delay.  Full-duplex links are modelled as two
independent ports/links, which is how data-centre Ethernet behaves.

Both classes expose dynamic hooks for the fault-injection subsystem
(:mod:`repro.faults`): a link can be taken down (packets sent onto or already
in flight on a dead link are dropped and counted) or given an elevated random
loss probability, and a port's transmit rate can be degraded to a fraction of
its nominal rate.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from repro.sim.engine import Simulator
from repro.utils.units import BITS_PER_BYTE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.network.node import Node
    from repro.network.queues import QueueDiscipline
    from repro.network.packet import Packet


class Link:
    """A unidirectional wire: fixed propagation delay towards a destination node."""

    def __init__(self, sim: Simulator, dst_node: "Node", delay_s: float, name: str = "") -> None:
        if not delay_s >= 0:  # Simulator.post does not check the delays it is given
            raise ValueError(f"link delay must be non-negative, got {delay_s}")
        self._sim = sim
        self.dst_node = dst_node
        self.delay_s = delay_s
        self.name = name or f"link->{dst_node.name}"
        #: dynamic fault state -- see :meth:`set_state` / :meth:`set_loss`
        self.up = True
        self.loss_probability = 0.0
        self._loss_rng: Optional[random.Random] = None
        self._down_epochs = 0
        self.dropped_link_down = 0
        self.dropped_random_loss = 0

    def set_state(self, up: bool) -> None:
        """Take the wire down (or bring it back up).

        While down, packets handed over by the port are dropped immediately
        and packets already propagating are dropped at their delivery time --
        a dead wire delivers nothing, including traffic that was in flight
        when it died (even if the wire recovers before the delivery time).
        """
        if self.up and not up:
            self._down_epochs += 1
        self.up = up

    @property
    def flaps(self) -> int:
        """How many times this wire has gone down (up->down transitions)."""
        return self._down_epochs

    def set_loss(self, probability: float, rng: Optional[random.Random]) -> None:
        """Configure elevated random loss (0 restores the loss-free wire).

        ``rng`` supplies the per-packet draws so the randomness stays under
        the experiment's seed control; it may be ``None`` when ``probability``
        is 0.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"loss probability must be in [0, 1], got {probability}")
        if probability > 0.0 and rng is None:
            raise ValueError("a loss probability > 0 requires an rng")
        self.loss_probability = probability
        self._loss_rng = rng

    def _deliver(self, packet: "Packet", epoch: int) -> None:
        if not self.up or epoch != self._down_epochs:
            # The link is down, or died at some point while this packet was
            # in flight (a down/up cycle faster than the propagation delay
            # still kills whatever was on the wire).
            self.dropped_link_down += 1
            return
        # set_loss guarantees an rng whenever the probability is above zero
        if self.loss_probability > 0.0 and self._loss_rng.random() < self.loss_probability:
            self.dropped_random_loss += 1
            return
        packet.hops += 1
        self.dst_node.receive(packet)


class Port:
    """An egress port: queue discipline + serialiser + attached link."""

    def __init__(
        self,
        sim: Simulator,
        owner: "Node",
        queue: "QueueDiscipline",
        rate_bps: float,
        link: Link,
        name: str = "",
    ) -> None:
        if not rate_bps > 0:  # Simulator.post does not check the delays it is given
            raise ValueError(f"port rate must be positive, got {rate_bps}")
        self._sim = sim
        self.owner = owner
        self.queue = queue
        self.rate_bps = rate_bps
        #: design rate; :meth:`set_rate_fraction` degrades relative to this
        self.nominal_rate_bps = rate_bps
        self.link = link
        self.name = name or f"{owner.name}->{link.dst_node.name}"
        self._transmitting = False
        self.transmitted_bytes = 0

    @property
    def busy(self) -> bool:
        """Whether the transmitter is currently serialising a packet."""
        return self._transmitting

    @property
    def is_degraded(self) -> bool:
        """Whether the port currently runs below its design rate (gray failures)."""
        return self.rate_bps < self.nominal_rate_bps

    def set_rate_fraction(self, fraction: float) -> None:
        """Degrade (or restore, with 1.0) the transmit rate to a fraction of nominal.

        The packet currently being serialised keeps its already-scheduled
        finish time; every subsequent packet serialises at the new rate.
        """
        if not fraction > 0:
            raise ValueError(f"rate fraction must be positive, got {fraction}")
        self.rate_bps = self.nominal_rate_bps * fraction

    def send(self, packet: "Packet") -> bool:
        """Queue a packet for transmission; returns False if it was dropped."""
        queue = self.queue
        if queue.enqueue(packet) is None:
            return False
        if not self._transmitting:
            # An idle transmitter means the queue held nothing before this packet.
            self._transmitting = True
            packet = queue.dequeue()
            self._sim.post(packet.size_bytes * BITS_PER_BYTE / self.rate_bps,
                           self._finish_transmission, packet)
        return True

    def _finish_transmission(self, packet: "Packet") -> None:
        """Hand a fully serialised packet to the wire, then start on the next one.

        Two events per hop, posted in this order: the propagation towards
        the remote node, then the next packet's serialisation.  The
        propagation carries the link's down-epoch at hand-over, so a wire
        that dies while the packet is in flight drops it on delivery.
        """
        self.transmitted_bytes += packet.size_bytes
        link = self.link
        if link.up:
            self._sim.post(link.delay_s, link._deliver, packet, link._down_epochs)
        else:
            link.dropped_link_down += 1
        packet = self.queue.dequeue()
        if packet is None:
            self._transmitting = False
            return
        self._sim.post(packet.size_bytes * BITS_PER_BYTE / self.rate_bps,
                       self._finish_transmission, packet)
