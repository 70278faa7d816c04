"""The telemetry sampler: a seeded-cadence probe sweep inside the simulator.

The sampler is an ordinary simulation process: once per ``sample_period_s``
of *simulation* time it sweeps every attached probe -- switch-port queue
depths, marking EWMAs, link utilisation, gray detections, per-path loss
estimates, TCP cwnd, fault-injector state and the run's
:class:`~repro.obs.registry.MetricRegistry` -- and records the readings
into a :class:`~repro.obs.recorder.FlightRecorder`.

Determinism is structural:

* Every reading is a pure function of simulator state at the tick time, and
  tick times are derived from the run's seeded ``"telemetry"`` random
  stream (first-tick phase offset) plus a fixed period -- so the same
  (config, seed) samples the same values at the same times in any process.
* Probe sweeps iterate in sorted name order, so recorder contents are
  ordered identically everywhere.
* The sampler **observes but never perturbs**: it sends no packets,
  mutates no protocol state, and -- crucially -- refuses to reschedule
  itself when it is the only thing left in the event heap, so it never
  keeps an otherwise-drained simulation alive or changes when a run ends.
  (Telemetry-on runs do process more events -- the ticks themselves -- so
  ``events_processed`` grows, deterministically; transfer outcomes are
  untouched.)
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from repro.obs.config import PHASE_JITTER, TelemetryConfig
from repro.obs.recorder import FlightRecorder
from repro.obs.registry import MetricRegistry

if TYPE_CHECKING:  # pragma: no cover - annotations only: repro.obs loads no simulator
    from repro.faults.injector import FaultInjector
    from repro.network.network import Network
    from repro.sim.engine import Simulator
    from repro.transport.polyraptor import PolyraptorAgent
    from repro.transport.tcp.agent import TcpAgent


class TelemetrySampler:
    """Periodically snapshot attached probes into a flight recorder."""

    def __init__(
        self,
        sim: Simulator,
        recorder: FlightRecorder,
        config: TelemetryConfig,
        rng: random.Random,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        self.sim = sim
        self.recorder = recorder
        self.config = config
        self.registry = registry
        #: sampling sweeps performed
        self.ticks = 0
        self._phase_s = rng.random() * PHASE_JITTER * config.sample_period_s
        self._network: Optional[Network] = None
        #: switch egress ports in sorted-name order (precomputed once)
        self._switch_ports: tuple = ()
        #: every directed port in sorted-name order (utilisation probes)
        self._all_ports: tuple = ()
        self._last_tx_bytes: dict[str, int] = {}
        self._last_tick_time: Optional[float] = None
        self._polyraptor: tuple = ()
        self._tcp: tuple = ()
        self._injector: Optional[FaultInjector] = None
        self._started = False

    # Probe attachment ---------------------------------------------------------------

    def attach_network(self, network: "Network") -> None:
        """Attach fabric probes: queue depth/EWMA/marks, utilisation, faults."""
        from repro.network.switch import Switch

        self._network = network
        ports = sorted(network.directed_ports.values(), key=lambda port: port.name)
        self._all_ports = tuple(ports)
        self._switch_ports = tuple(
            port for port in ports if isinstance(port.owner, Switch)
        )
        self._last_tx_bytes = {port.name: 0 for port in ports}

    def attach_polyraptor(self, agents: dict[str, "PolyraptorAgent"]) -> None:
        """Attach transport probes for Polyraptor hosts (gray detection, path loss)."""
        self._polyraptor = tuple(agents[name] for name in sorted(agents))

    def attach_tcp(self, agents: dict[str, "TcpAgent"]) -> None:
        """Attach transport probes for TCP hosts (cwnd, active flows)."""
        self._tcp = tuple(agents[name] for name in sorted(agents))

    def attach_faults(self, injector: "FaultInjector") -> None:
        """Attach the fault injector's cause-tagged counters as sparse gauges."""
        self._injector = injector

    # Lifecycle ----------------------------------------------------------------------

    def start(self) -> None:
        """Schedule the first tick (seeded phase offset into the first period)."""
        if self._started:
            raise RuntimeError("sampler already started")
        self._started = True
        self.sim.schedule_at(self._phase_s, self._tick)

    def _tick(self) -> None:
        now = self.sim.now
        self.ticks += 1
        self._sample_network(now)
        self._sample_transport(now)
        self._sample_faults(now)
        self._sample_registry(now)
        self._last_tick_time = now
        # Reschedule only while other work is pending: when the heap is
        # empty nothing can create future events (all event sources are
        # themselves events), so a lone sampler would tick into dead air
        # until the time cap -- and worse, extend cap-less runs forever.
        if self.sim.peek_next_time() is not None:
            self.sim.schedule(self.config.sample_period_s, self._tick)

    # Probe sweeps -------------------------------------------------------------------

    def _sample_network(self, now: float) -> None:
        network = self._network
        if network is None:
            return
        record = self.recorder.record
        for port in self._switch_ports:
            queue = port.queue
            depth = getattr(queue, "data_queue_length", None)
            if depth is None:
                depth = len(queue)
            record(now, f"queue.depth.{port.name}", depth)
            marker = queue.marker
            if marker is not None:
                record(now, f"queue.ewma.{port.name}", marker.ewma_depth)
                record(now, f"queue.marks.{port.name}", marker.marks)
        last_time = self._last_tick_time
        if last_time is not None and now > last_time:
            dt = now - last_time
            last_tx = self._last_tx_bytes
            for port in self._all_ports:
                sent = port.transmitted_bytes
                delta = sent - last_tx[port.name]
                last_tx[port.name] = sent
                record(now, f"link.util.{port.name}", delta * 8 / (port.rate_bps * dt))
        else:
            for port in self._all_ports:
                self._last_tx_bytes[port.name] = port.transmitted_bytes
        record(now, "fabric.trimmed", network.total_trimmed_packets)
        record(now, "fabric.dropped", network.total_dropped_packets)
        record(now, "fabric.marked", network.total_ecn_marked)

    def _sample_transport(self, now: float) -> None:
        record = self.recorder.record
        for agent in self._polyraptor:
            host = agent.host.name
            gray = sum(sender.core.gray_detected for sender in agent.all_sender_sessions)
            record(now, f"gray.detected.{host}", gray)
            for receiver in agent.all_receiver_sessions:
                for sender_host, loss in receiver.core.path_loss_estimates().items():
                    record(
                        now,
                        f"loss.{host}.s{receiver.core.session_id}.h{sender_host}",
                        loss,
                    )
        for agent in self._tcp:
            host = agent.host.name
            cwnd = 0.0
            flows = 0
            for sender in agent.all_senders:
                if not sender.completed:
                    cwnd += sender.cwnd
                    flows += 1
            record(now, f"tcp.cwnd.{host}", cwnd)
            record(now, f"tcp.flows.{host}", flows)

    def _sample_faults(self, now: float) -> None:
        network = self._network
        record = self.recorder.record
        if network is not None:
            record(now, "faults.links_down", len(network.failed_edges))
            record(now, "faults.switches_down", len(network.failed_switches))
            record(now, "faults.degraded_ports", network.degraded_ports)
        if self._injector is not None:
            for key, value in sorted(self._injector.stats_dict().items()):
                if isinstance(value, (int, float)):
                    record(now, f"faults.{key}", value)

    def _sample_registry(self, now: float) -> None:
        if self.registry is None:
            return
        record = self.recorder.record
        for name, value in self.registry.snapshot().items():
            if isinstance(value, (int, float)):
                record(now, f"metric.{name}", value)
