"""Declarative, seeded fault schedules.

A :class:`FaultSchedule` is a value object: an immutable, time-sorted tuple
of :class:`FaultEvent` records describing *what* goes wrong in the fabric and
*when* -- links failing and recovering, links degrading to a fraction of
their rate, elevated random loss, and whole-switch failures.

Schedules are plain frozen dataclasses, so they pickle and hash: the
parallel executor ships them to worker processes inside
:class:`~repro.experiments.parallel.RunJob` and the run is byte-identical
for any ``--jobs N``.  Execution is the job of
:class:`repro.faults.injector.FaultInjector`.

The constructor *validates* rather than repairs: events must already be in
non-decreasing time order (assemble out-of-order event soups through
:meth:`FaultSchedule.ordered`, which sorts stably and keeps same-time
batches intact).  Mis-ordered or negative-time events are rejected with a
``ValueError`` at construction, where the mistake is visible, instead of
surfacing as out-of-order injection later.

Generators, all drawing every placement / timing / magnitude from a
caller-supplied seeded RNG so equally seeded calls build identical
schedules:

* :func:`random_fault_schedule` -- *independent* faults whose event count
  scales with a single ``intensity`` knob (the resilience experiment);
* :func:`shared_risk_group_schedule` -- a shared-risk link group (SRLG): a
  named set of links that shares a conduit / linecard fails and recovers as
  one same-instant batch;
* :func:`rack_power_schedule` -- a rack loses power: the ToR switch and all
  of its host access links die and recover as a unit;
* :func:`gray_failure_schedule` -- gray failures: low-probability Bernoulli
  loss (optionally plus a mild rate degrade) smeared across many links,
  with *no* topology change, so routing keeps using the sick paths.

Every event carries an optional ``cause`` tag naming the builder that
produced it; the injector counts events per cause so experiment reports can
attribute damage to failure *models*, not just event kinds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Sequence

from repro.network.topology import NodeRole, Topology


class FaultKind(str, Enum):
    """What a fault event does to its target."""

    LINK_DOWN = "link_down"
    LINK_UP = "link_up"
    LINK_DEGRADE = "link_degrade"
    LINK_LOSS = "link_loss"
    SWITCH_DOWN = "switch_down"
    SWITCH_UP = "switch_up"


#: kinds that address a full-duplex link (two node names)
LINK_KINDS = frozenset(
    {FaultKind.LINK_DOWN, FaultKind.LINK_UP, FaultKind.LINK_DEGRADE, FaultKind.LINK_LOSS}
)
#: kinds that change the topology and therefore force a route recompute
TOPOLOGY_KINDS = frozenset(
    {FaultKind.LINK_DOWN, FaultKind.LINK_UP, FaultKind.SWITCH_DOWN, FaultKind.SWITCH_UP}
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Attributes:
        time: absolute simulation time the event applies at.
        kind: what happens.
        target: ``(a, b)`` node names for link kinds, ``(name,)`` otherwise.
        severity: kind-specific magnitude -- the surviving rate fraction for
            ``LINK_DEGRADE`` (1.0 restores nominal rate),
            the loss probability for ``LINK_LOSS`` (0.0 clears it); unused
            (1.0) for the binary kinds.
        cause: optional name of the failure model (builder) that produced
            the event (``"srlg"``, ``"rack_power"``, ``"gray"``, ...); the
            injector aggregates per-cause counters from it.  Empty for
            hand-written events.
    """

    time: float
    kind: FaultKind
    target: tuple[str, ...]
    severity: float = 1.0
    cause: str = ""

    def __post_init__(self) -> None:
        if not self.time >= 0:
            raise ValueError(f"fault time must be >= 0, got {self.time}")
        expected = 2 if self.kind in LINK_KINDS else 1
        if len(self.target) != expected:
            raise ValueError(
                f"{self.kind.value} targets {expected} node(s), got {self.target!r}"
            )
        if self.kind is FaultKind.LINK_DEGRADE:
            if not 0.0 < self.severity <= 1.0:
                raise ValueError(
                    f"{self.kind.value} severity must be a rate fraction in (0, 1], "
                    f"got {self.severity}"
                )
        elif self.kind is FaultKind.LINK_LOSS:
            if not 0.0 <= self.severity <= 1.0:
                raise ValueError(
                    f"link_loss severity must be a probability in [0, 1], got {self.severity}"
                )


# Constructors ----------------------------------------------------------------------


def link_down(time: float, name_a: str, name_b: str, cause: str = "") -> FaultEvent:
    """Fail the full-duplex link between two nodes (in-flight packets are dropped)."""
    return FaultEvent(time, FaultKind.LINK_DOWN, (name_a, name_b), cause=cause)


def link_up(time: float, name_a: str, name_b: str, cause: str = "") -> FaultEvent:
    """Restore a previously failed link."""
    return FaultEvent(time, FaultKind.LINK_UP, (name_a, name_b), cause=cause)


def link_degrade(
    time: float, name_a: str, name_b: str, rate_fraction: float, cause: str = ""
) -> FaultEvent:
    """Degrade a link to ``rate_fraction`` of its nominal rate (1.0 restores)."""
    return FaultEvent(time, FaultKind.LINK_DEGRADE, (name_a, name_b), rate_fraction, cause)


def link_loss(
    time: float, name_a: str, name_b: str, probability: float, cause: str = ""
) -> FaultEvent:
    """Give a link an elevated random loss probability (0.0 clears it)."""
    return FaultEvent(time, FaultKind.LINK_LOSS, (name_a, name_b), probability, cause)


def switch_down(time: float, switch_name: str, cause: str = "") -> FaultEvent:
    """Fail a whole switch (it black-holes traffic until restored)."""
    return FaultEvent(time, FaultKind.SWITCH_DOWN, (switch_name,), cause=cause)


def switch_up(time: float, switch_name: str, cause: str = "") -> FaultEvent:
    """Restore a previously failed switch."""
    return FaultEvent(time, FaultKind.SWITCH_UP, (switch_name,), cause=cause)


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, time-ordered sequence of fault events.

    The constructor **validates** the ordering rather than silently fixing
    it: events must already be in non-decreasing time order and every time
    must be non-negative, otherwise a ``ValueError`` pinpoints the offending
    event.  (An out-of-order schedule used to be re-sorted here; that hid
    assembly bugs -- a recovery accidentally scheduled before its fault
    simply swapped places -- and the injector then misbehaved at injection
    time.)  Use :meth:`ordered` to canonicalise event soups assembled out of
    order; same-time events keep their given order, which is what keeps
    compound (same-instant) fault batches intact.
    """

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        events = tuple(self.events)
        object.__setattr__(self, "events", events)
        previous = 0.0
        for index, event in enumerate(events):
            if not isinstance(event, FaultEvent):
                raise ValueError(
                    f"schedule entry {index} is not a FaultEvent: {event!r}"
                )
            # FaultEvent validates its own time, but events restored from
            # tampered pickles (or built via __new__) bypass __post_init__,
            # so the schedule re-checks the invariant it depends on.
            if event.time < 0:
                raise ValueError(
                    f"schedule entry {index} has a negative time ({event.time})"
                )
            if event.time < previous:
                raise ValueError(
                    f"schedule events must be in non-decreasing time order: entry "
                    f"{index} ({event.kind.value} at t={event.time}) comes after "
                    f"t={previous}; use FaultSchedule.ordered(...) to sort"
                )
            previous = event.time

    @classmethod
    def ordered(cls, events: Sequence[FaultEvent]) -> "FaultSchedule":
        """Build a schedule from events in any order (stable time sort).

        Same-time events keep their given relative order, so a schedule is
        canonical regardless of how its events were assembled and compound
        same-instant batches stay batched.
        """
        return cls(tuple(sorted(events, key=lambda event: event.time)))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    @property
    def last_time(self) -> float:
        """Time of the final event (0.0 for an empty schedule)."""
        return self.events[-1].time if self.events else 0.0

    def merged(self, other: "FaultSchedule") -> "FaultSchedule":
        """A new schedule containing both event sequences (re-sorted by time)."""
        return FaultSchedule.ordered(self.events + other.events)

    def counts(self) -> dict[str, int]:
        """Events per kind (keys are :class:`FaultKind` values)."""
        result = {kind.value: 0 for kind in FaultKind}
        for event in self.events:
            result[event.kind.value] += 1
        return result


# Builders --------------------------------------------------------------------------


def _check_window(start_time: float, duration: float) -> None:
    """Validate a fault window up front (clear errors beat empty schedules)."""
    if start_time < 0:
        raise ValueError(f"start_time cannot be negative, got {start_time}")
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")


def fabric_edges(topology: Topology) -> list[tuple[str, str]]:
    """Every switch-to-switch link, as sorted name pairs in deterministic order.

    Host access links are excluded: failing a host's single uplink does not
    test path redundancy, it just unplugs the host.
    """
    roles = topology.roles
    return sorted(
        (a, b) if a < b else (b, a)
        for a, b in topology.graph.edges
        if roles[a] is not NodeRole.HOST and roles[b] is not NodeRole.HOST
    )


def core_switches(topology: Topology) -> list[str]:
    """Top-tier switches (core or spine), in deterministic order."""
    return sorted(
        name
        for name, role in topology.roles.items()
        if role in (NodeRole.CORE, NodeRole.SPINE)
    )


def _fault_interval(
    rng: random.Random, start_time: float, duration: float
) -> tuple[float, float]:
    """One onset/recovery pair inside the fault window."""
    begin = start_time + rng.uniform(0.05, 0.35) * duration
    end = begin + rng.uniform(0.25, 0.5) * duration
    return begin, end


def random_fault_schedule(
    topology: Topology,
    rng: random.Random,
    intensity: float,
    start_time: float = 0.0,
    duration: float = 1.0,
    allow_switch_failure: bool = True,
) -> FaultSchedule:
    """A seeded random schedule whose damage scales with ``intensity``.

    ``intensity`` is a fraction in [0, 1]: 0 produces an empty schedule; 1.0
    transiently fails about a fifth of the fabric links and degrades / makes
    lossy another third, plus one core-switch failure (values above 1 are
    rejected -- they would let the link-down slice swallow the whole edge
    sample and silently collapse the documented fault mix).  All faults are
    transient: every down link
    comes back up, every degraded link recovers and every lossy link is
    cleared within the ``[start_time, start_time + duration]`` window, so a
    run that outlives the window always ends on a healthy fabric.

    Every placement, timing and magnitude is drawn from ``rng``, so two calls
    with equally seeded RNGs produce identical schedules -- the determinism
    the sharded resilience sweep relies on.
    """
    if not 0.0 <= intensity <= 1.0:
        raise ValueError(f"intensity must be a fraction in [0, 1], got {intensity}")
    _check_window(start_time, duration)
    if intensity == 0:
        return FaultSchedule()

    edges = fabric_edges(topology)
    num_down = round(0.2 * intensity * len(edges))
    num_degrade = round(0.15 * intensity * len(edges))
    num_lossy = round(0.15 * intensity * len(edges))
    if num_down + num_degrade + num_lossy == 0:
        num_down = 1  # a nonzero intensity always injects something
    chosen = rng.sample(edges, min(len(edges), num_down + num_degrade + num_lossy))

    events: list[FaultEvent] = []
    for name_a, name_b in chosen[:num_down]:
        begin, end = _fault_interval(rng, start_time, duration)
        events.append(link_down(begin, name_a, name_b, cause="random"))
        events.append(link_up(end, name_a, name_b, cause="random"))
    for name_a, name_b in chosen[num_down : num_down + num_degrade]:
        begin, end = _fault_interval(rng, start_time, duration)
        fraction = rng.uniform(0.2, 0.5)
        events.append(link_degrade(begin, name_a, name_b, fraction, cause="random"))
        events.append(link_degrade(end, name_a, name_b, 1.0, cause="random"))
    for name_a, name_b in chosen[num_down + num_degrade :]:
        begin, end = _fault_interval(rng, start_time, duration)
        probability = min(0.5, intensity * rng.uniform(0.05, 0.25))
        events.append(link_loss(begin, name_a, name_b, probability, cause="random"))
        events.append(link_loss(end, name_a, name_b, 0.0, cause="random"))

    cores = core_switches(topology)
    if allow_switch_failure and intensity >= 0.5 and len(cores) >= 2:
        victim = rng.choice(cores)
        begin, end = _fault_interval(rng, start_time, duration)
        events.append(switch_down(begin, victim, cause="random"))
        events.append(switch_up(end, victim, cause="random"))

    return FaultSchedule.ordered(events)


# Correlated failure models ----------------------------------------------------------
#
# Real data-centre failures are rarely independent: links share conduits,
# linecards and power feeds, so one physical event takes out a *set* of
# links; and a large fraction of production incidents are "gray" -- nothing
# goes down, but many links quietly lose or slow a little, which routing
# never reacts to.  These builders express both families declaratively; the
# injector needs no changes because compound failures are just same-instant
# event batches (one routing recompute per batch) and gray failures reuse
# the per-port loss/degrade hooks.


def shared_risk_group_schedule(
    topology: Topology,
    rng: random.Random,
    group_size: int,
    num_groups: int = 1,
    start_time: float = 0.0,
    duration: float = 1.0,
) -> FaultSchedule:
    """Fail shared-risk link groups (SRLGs): sets of links that die together.

    Each group models one physical event -- a cut conduit, a dead linecard
    -- taking down ``group_size`` fabric links that share an *anchor* switch
    (they plausibly ride the same hardware).  All links of a group fail at
    the same instant and recover at the same later instant, so the injector
    applies each transition as one compound batch and pays one routing
    recompute for it.  Groups are disjoint: a link belongs to at most one
    group.  Every placement and timing comes from ``rng``.

    Raises ``ValueError`` up front when the arguments cannot yield the
    requested groups (size/count not positive, window invalid, or the
    fabric cannot supply ``num_groups`` disjoint groups of that size).
    """
    if group_size < 1:
        raise ValueError(f"group_size must be at least 1, got {group_size}")
    if num_groups < 1:
        raise ValueError(f"num_groups must be at least 1, got {num_groups}")
    _check_window(start_time, duration)

    incident: dict[str, list[tuple[str, str]]] = {}
    for edge in fabric_edges(topology):
        for endpoint in edge:
            incident.setdefault(endpoint, []).append(edge)
    largest = max((len(edges) for edges in incident.values()), default=0)
    if group_size > largest:
        raise ValueError(
            f"group_size {group_size} exceeds the largest shared-risk set this "
            f"fabric can supply ({largest} links share one switch)"
        )

    used: set[tuple[str, str]] = set()
    events: list[FaultEvent] = []
    for _ in range(num_groups):
        eligible = sorted(
            anchor
            for anchor, edges in incident.items()
            if sum(1 for edge in edges if edge not in used) >= group_size
        )
        if not eligible:
            raise ValueError(
                f"fabric cannot supply {num_groups} disjoint shared-risk groups "
                f"of {group_size} links"
            )
        anchor = rng.choice(eligible)
        free = [edge for edge in incident[anchor] if edge not in used]
        group = rng.sample(free, group_size)
        used.update(group)
        begin, end = _fault_interval(rng, start_time, duration)
        for name_a, name_b in group:
            events.append(link_down(begin, name_a, name_b, cause="srlg"))
        for name_a, name_b in group:
            events.append(link_up(end, name_a, name_b, cause="srlg"))
    return FaultSchedule.ordered(events)


def rack_power_schedule(
    topology: Topology,
    rng: random.Random,
    num_racks: int = 1,
    start_time: float = 0.0,
    duration: float = 1.0,
) -> FaultSchedule:
    """Fail whole racks: a ToR switch plus all its host links, as one unit.

    A rack losing power takes down its top-of-rack switch *and* every host
    behind it in the same instant -- the strongest correlated failure a
    fabric sees in practice.  Each sampled rack contributes one compound
    down batch (``switch_down`` + a ``link_down`` per host access link) and
    one compound recovery batch, so routing recomputes once per transition.
    Hosts in a dead rack are unreachable until recovery; transfers touching
    them stall and must ride the recovery, which is exactly the behaviour
    the correlated experiment measures.
    """
    if num_racks < 1:
        raise ValueError(f"num_racks must be at least 1, got {num_racks}")
    _check_window(start_time, duration)
    roles = topology.roles
    racks = sorted(
        name
        for name, role in roles.items()
        if role in (NodeRole.EDGE, NodeRole.LEAF)
        and any(roles[n] is NodeRole.HOST for n in topology.graph.neighbors(name))
    )
    if num_racks > len(racks):
        raise ValueError(
            f"cannot fail {num_racks} racks: topology has only {len(racks)} "
            f"host-bearing ToR switches"
        )
    events: list[FaultEvent] = []
    for tor in rng.sample(racks, num_racks):
        hosts = sorted(
            n for n in topology.graph.neighbors(tor) if roles[n] is NodeRole.HOST
        )
        begin, end = _fault_interval(rng, start_time, duration)
        events.append(switch_down(begin, tor, cause="rack_power"))
        for host in hosts:
            events.append(link_down(begin, tor, host, cause="rack_power"))
        events.append(switch_up(end, tor, cause="rack_power"))
        for host in hosts:
            events.append(link_up(end, tor, host, cause="rack_power"))
    return FaultSchedule.ordered(events)


def gray_failure_schedule(
    topology: Topology,
    rng: random.Random,
    loss_probability: float,
    affected_fraction: float = 0.5,
    degrade_to: Optional[float] = None,
    start_time: float = 0.0,
    duration: float = 1.0,
) -> FaultSchedule:
    """Smear low-probability loss (and optional mild degrade) over many links.

    Gray failures are the failures detection misses: no link goes *down*, so
    no routing recompute ever fires, but a large share of the fabric quietly
    drops a small fraction of packets (and, with ``degrade_to``, serialises
    slightly slower).  ``affected_fraction`` of the fabric links each get a
    seeded Bernoulli ``loss_probability``; onsets and clears are smeared
    independently per link across the window, the way gray failures creep in
    rather than strike.

    ``loss_probability`` must be a probability in (0, 1] and ``degrade_to``
    (when given) a rate fraction in (0, 1) -- zero-loss or no-op-degrade
    arguments are rejected up front rather than silently emitting a schedule
    that does nothing.
    """
    if not 0.0 < loss_probability <= 1.0:
        raise ValueError(
            f"loss_probability must be a probability in (0, 1], got {loss_probability}"
        )
    if not 0.0 < affected_fraction <= 1.0:
        raise ValueError(
            f"affected_fraction must be a fraction in (0, 1], got {affected_fraction}"
        )
    if degrade_to is not None and not 0.0 < degrade_to < 1.0:
        raise ValueError(
            f"degrade_to must be a rate fraction in (0, 1), got {degrade_to}"
        )
    _check_window(start_time, duration)

    edges = fabric_edges(topology)
    affected = rng.sample(edges, max(1, round(affected_fraction * len(edges))))
    events: list[FaultEvent] = []
    for name_a, name_b in affected:
        begin = start_time + rng.uniform(0.05, 0.30) * duration
        end = start_time + rng.uniform(0.70, 0.95) * duration
        events.append(link_loss(begin, name_a, name_b, loss_probability, cause="gray"))
        events.append(link_loss(end, name_a, name_b, 0.0, cause="gray"))
        if degrade_to is not None:
            events.append(link_degrade(begin, name_a, name_b, degrade_to, cause="gray"))
            events.append(link_degrade(end, name_a, name_b, 1.0, cause="gray"))
    return FaultSchedule.ordered(events)
