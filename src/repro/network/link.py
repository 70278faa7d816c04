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
from repro.utils.units import serialization_delay

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.network.node import Node
    from repro.network.queues import QueueDiscipline
    from repro.network.packet import Packet


class Link:
    """A unidirectional wire: fixed propagation delay towards a destination node."""

    def __init__(self, sim: Simulator, dst_node: "Node", delay_s: float, name: str = "") -> None:
        if delay_s < 0:
            raise ValueError("link delay cannot be negative")
        self._sim = sim
        self.dst_node = dst_node
        self.delay_s = delay_s
        self.name = name or f"link->{dst_node.name}"
        self.delivered_packets = 0
        self.delivered_bytes = 0
        #: dynamic fault state -- see :meth:`set_state` / :meth:`set_loss`
        self.up = True
        self.loss_probability = 0.0
        self._loss_rng: Optional[random.Random] = None
        self._down_epochs = 0
        self.dropped_link_down = 0
        self.dropped_random_loss = 0

    def set_state(self, up: bool) -> None:
        """Take the wire down (or bring it back up).

        While down, packets handed to :meth:`carry` are dropped immediately
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

    def carry(self, packet: "Packet") -> None:
        """Propagate a fully serialised packet to the remote node."""
        if not self.up:
            self.dropped_link_down += 1
            return
        self._sim.schedule(self.delay_s, self._deliver, packet, self._down_epochs)

    def _deliver(self, packet: "Packet", epoch: int) -> None:
        if not self.up or epoch != self._down_epochs:
            # The link is down, or died at some point while this packet was
            # in flight (a down/up cycle faster than the propagation delay
            # still kills whatever was on the wire).
            self.dropped_link_down += 1
            return
        if (
            self.loss_probability > 0.0
            and self._loss_rng is not None
            and self._loss_rng.random() < self.loss_probability
        ):
            self.dropped_random_loss += 1
            return
        self.delivered_packets += 1
        self.delivered_bytes += packet.size_bytes
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
        if rate_bps <= 0:
            raise ValueError("port rate must be positive")
        self._sim = sim
        self.owner = owner
        self.queue = queue
        self.rate_bps = rate_bps
        #: design rate; :meth:`set_rate_fraction` degrades relative to this
        self.nominal_rate_bps = rate_bps
        self.link = link
        self.name = name or f"{owner.name}->{link.dst_node.name}"
        self._transmitting = False
        self.transmitted_packets = 0
        self.transmitted_bytes = 0

    @property
    def remote_node(self) -> "Node":
        """The node at the far end of this port's link."""
        return self.link.dst_node

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
        if fraction <= 0:
            raise ValueError(f"rate fraction must be positive, got {fraction}")
        self.rate_bps = self.nominal_rate_bps * fraction

    def send(self, packet: "Packet") -> bool:
        """Queue a packet for transmission; returns False if it was dropped."""
        if self.queue.enqueue(packet) is None:
            return False
        if not self._transmitting:
            self._start_next_transmission()
        return True

    def _start_next_transmission(self) -> None:
        packet = self.queue.dequeue()
        if packet is None:
            self._transmitting = False
            return
        self._transmitting = True
        delay = serialization_delay(packet.size_bytes, self.rate_bps)
        self._sim.schedule(delay, self._finish_transmission, packet)

    def _finish_transmission(self, packet: "Packet") -> None:
        """Hand a fully serialised packet to the wire, then start on the next one.

        Two events per hop, scheduled in this order: the propagation towards
        the remote node, then the next packet's serialisation.
        """
        self.transmitted_packets += 1
        self.transmitted_bytes += packet.size_bytes
        self.link.carry(packet)
        # _start_next_transmission, in this frame: it runs for every packet on every hop
        packet = self.queue.dequeue()
        if packet is None:
            self._transmitting = False
            return
        delay = serialization_delay(packet.size_bytes, self.rate_bps)
        self._sim.schedule(delay, self._finish_transmission, packet)
