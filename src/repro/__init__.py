"""Polyraptor reproduction library.

This package is a from-scratch Python reproduction of *Polyraptor: Embracing
Path and Data Redundancy in Data Centres for Efficient Data Transport*
(SIGCOMM 2018).  It contains:

* :mod:`repro.rq` -- a systematic, rateless RaptorQ-style fountain codec.
* :mod:`repro.protocol` -- the Polyraptor protocol itself (receiver-driven,
  pull-based, unicast / multicast / multi-source sessions) as sans-IO
  session cores and one clock-blind driver; :mod:`repro.core` holds its
  config and payload types.
* :mod:`repro.sim` -- a deterministic discrete-event simulation engine.
* :mod:`repro.network` -- a packet-level data-centre network substrate
  (FatTree topologies, trimming switches, multicast trees, packet spraying).
* :mod:`repro.transport` -- the simulator's host endpoints: the Polyraptor
  agent that binds the protocol cores, and the NewReno-style TCP baseline.
* :mod:`repro.net` -- the same protocol cores over real UDP sockets.
* :mod:`repro.workloads` -- workload generators used by the paper's
  evaluation (permutation traffic, Poisson arrivals, storage and Incast
  scenarios).
* :mod:`repro.experiments` -- the harness that regenerates every figure of
  the paper's evaluation plus ablations.

Quickstart::

    from repro.experiments import runner
    result = runner.run_unicast_demo()
    print(result.goodputs_gbps())
"""

from repro._version import __version__

__all__ = ["__version__"]
