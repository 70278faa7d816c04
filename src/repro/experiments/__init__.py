"""Experiment harness: regenerates every figure of the paper plus ablations.

* :mod:`repro.experiments.config`   -- experiment configuration (scaled-down
  defaults plus the paper's full-scale parameters).
* :mod:`repro.experiments.runner`   -- offers a protocol-independent workload
  to either Polyraptor or TCP and collects results.
* :mod:`repro.experiments.metrics`  -- rank curves, aggregate goodputs,
  confidence intervals.
* :mod:`repro.experiments.sweep`    -- the one scenario shape: cells ->
  ``run_sweep`` -> reducer -> columns; every module below is built on it.
* :mod:`repro.experiments.figure1a` -- multicast/replication (Figure 1a).
* :mod:`repro.experiments.figure1b` -- multi-source fetch (Figure 1b).
* :mod:`repro.experiments.figure1c` -- Incast (Figure 1c).
* :mod:`repro.experiments.ablations`-- design-choice ablations (trimming,
  spraying, RQ overhead, initial window).
* :mod:`repro.experiments.resilience` -- FCT degradation under injected
  fault intensities (independent faults).
* :mod:`repro.experiments.correlated` -- correlated failure models (SRLGs,
  rack power, gray loss) with routing-convergence delay.
* :mod:`repro.experiments.report`   -- plain-text rendering of the results.
"""

from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.runner import RunResult, offer_transfers, run_transfers

__all__ = [
    "ExperimentConfig",
    "Protocol",
    "RunResult",
    "run_transfers",
    "offer_transfers",
]
