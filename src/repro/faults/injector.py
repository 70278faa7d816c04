"""The fault injector: a simulation process that executes a fault schedule.

One :class:`FaultInjector` per run.  At :meth:`start` it schedules every
event of its :class:`~repro.faults.schedule.FaultSchedule` on the run's
simulator; when an event fires it applies the corresponding dynamic hook on
the :class:`~repro.network.network.Network` and, for topology-changing kinds
(link down/up, switch down/up), triggers one routing recompute -- ECMP next
hops and multicast trees are rebuilt on the surviving topology and the
number of changed table entries is accumulated in ``reroutes``.

The injector also owns the run's fault accounting: per-kind event counters,
per-*cause* counters (which failure model -- ``srlg``, ``rack_power``,
``gray``, ... -- produced each applied event), routing-convergence counters
(recomputes requested vs. route tables actually installed, which differ
when the network models control-plane lag), plus the fabric-wide
packet-drop counters (packets dropped on dead links, by injected random
loss, and by failed switches), exported as a plain dict by
:meth:`stats_dict` so results pickle across worker processes unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.faults.schedule import TOPOLOGY_KINDS, FaultEvent, FaultKind, FaultSchedule
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.network.network import Network


class FaultInjector:
    """Executes a :class:`FaultSchedule` against a live :class:`Network`."""

    def __init__(self, sim: Simulator, network: "Network", schedule: FaultSchedule) -> None:
        self.sim = sim
        self.network = network
        self.schedule = schedule
        self._started = False
        self.events_applied = 0
        self.links_failed = 0
        self.links_restored = 0
        self.links_degraded = 0
        self.links_lossy = 0
        self.switches_failed = 0
        self.switches_restored = 0
        #: applied events per schedule-builder cause tag (empty tags skipped)
        self.cause_counts: dict[str, int] = {}
        #: total next-hop table entries changed across every installed recompute
        self.reroutes = 0
        #: topology-changing batches that requested a routing recompute
        self.recomputes_requested = 0
        #: recomputed tables actually installed (== requested when the
        #: network converges instantaneously; fewer when control-plane lag
        #: outlives the run or a newer recompute supersedes a pending one)
        self.route_installs = 0

    def start(self) -> None:
        """Schedule the fault events (idempotence guarded).

        Same-time events are batched into one callback so a compound fault
        (e.g. a switch plus three links dying together) pays for a single
        routing recompute, and ``reroutes`` never counts transient
        mid-batch table states.
        """
        if self._started:
            raise RuntimeError("FaultInjector.start() may only be called once")
        self._started = True
        batches: dict[float, list[FaultEvent]] = {}
        for event in self.schedule:
            batches.setdefault(event.time, []).append(event)
        for time, events in batches.items():
            self.sim.schedule_at(time, self._apply_batch, tuple(events))

    def _apply_batch(self, events: tuple[FaultEvent, ...]) -> None:
        recompute = False
        for event in events:
            self._apply(event)
            recompute = recompute or event.kind in TOPOLOGY_KINDS
        if recompute:
            self.recomputes_requested += 1
            # With convergence delay the table install happens later (or
            # never, if the run ends first); the callback books the changed
            # entries whenever the control plane actually converges.
            self.network.recompute_routes(on_installed=self._note_install)

    def _note_install(self, changed_entries: int) -> None:
        self.reroutes += changed_entries
        self.route_installs += 1

    def _apply(self, event: FaultEvent) -> None:
        network = self.network
        kind = event.kind
        if kind is FaultKind.LINK_DOWN:
            network.set_link_state(*event.target, up=False)
            self.links_failed += 1
        elif kind is FaultKind.LINK_UP:
            network.set_link_state(*event.target, up=True)
            self.links_restored += 1
        elif kind is FaultKind.LINK_DEGRADE:
            network.degrade_link(*event.target, rate_fraction=event.severity)
            if event.severity < 1.0:
                self.links_degraded += 1
        elif kind is FaultKind.LINK_LOSS:
            network.set_link_loss(*event.target, probability=event.severity)
            if event.severity > 0.0:
                self.links_lossy += 1
        elif kind is FaultKind.SWITCH_DOWN:
            network.set_switch_failed(event.target[0], failed=True)
            self.switches_failed += 1
        elif kind is FaultKind.SWITCH_UP:
            network.set_switch_failed(event.target[0], failed=False)
            self.switches_restored += 1
        else:  # pragma: no cover - FaultKind is closed
            raise ValueError(f"unknown fault kind {kind!r}")
        self.events_applied += 1
        if event.cause:
            self.cause_counts[event.cause] = self.cause_counts.get(event.cause, 0) + 1
        network.trace.record(
            self.sim.now, f"fault.{kind.value}", target="/".join(event.target),
            severity=event.severity,
        )

    def stats_dict(self) -> dict:
        """Fault accounting for this run as a picklable, mergeable dict.

        All values are additive counters so shards merge by summation
        (:func:`repro.experiments.report.merge_counter_stats`); per-cause
        counts are flattened to ``cause_<name>`` keys for the same reason.
        """
        stats = {
            "events_scheduled": len(self.schedule),
            "events_applied": self.events_applied,
            "links_failed": self.links_failed,
            "links_restored": self.links_restored,
            "links_degraded": self.links_degraded,
            "links_lossy": self.links_lossy,
            "switches_failed": self.switches_failed,
            "switches_restored": self.switches_restored,
            "reroutes": self.reroutes,
            "recomputes_requested": self.recomputes_requested,
            "route_installs": self.route_installs,
            "packets_dropped_link_down": self.network.total_dropped_link_down,
            "packets_dropped_random_loss": self.network.total_dropped_random_loss,
            "packets_dropped_switch_down": self.network.total_dropped_switch_down,
        }
        for cause in sorted(self.cause_counts):
            stats[f"cause_{cause}"] = self.cause_counts[cause]
        return stats
