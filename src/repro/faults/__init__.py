"""Fault injection and dynamic topology.

The subsystem has two halves:

* :mod:`repro.faults.schedule` -- declarative, seeded, picklable
  :class:`FaultSchedule` value objects (link down/up, link degrade, random
  loss, switch failure) plus the seeded generators the
  experiments parameterise: :func:`random_fault_schedule` (independent
  faults by intensity), :func:`shared_risk_group_schedule` (SRLGs),
  :func:`rack_power_schedule` (a ToR and all its host links as one unit),
  :func:`gray_failure_schedule` (low-probability loss smeared across many
  links, invisible to routing);
* :mod:`repro.faults.injector` -- the :class:`FaultInjector` simulation
  process that executes a schedule against a live network, recomputing
  routes on topology changes and counting every fault-caused packet drop.
"""

from repro.faults.injector import FaultInjector
from repro.faults.schedule import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    fabric_edges,
    gray_failure_schedule,
    link_degrade,
    link_down,
    link_loss,
    link_up,
    rack_power_schedule,
    random_fault_schedule,
    shared_risk_group_schedule,
    switch_down,
    switch_up,
)

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultSchedule",
    "fabric_edges",
    "gray_failure_schedule",
    "link_degrade",
    "link_down",
    "link_loss",
    "link_up",
    "rack_power_schedule",
    "random_fault_schedule",
    "shared_risk_group_schedule",
    "switch_down",
    "switch_up",
]
