"""Telemetry configuration.

A :class:`TelemetryConfig` rides inside
:class:`~repro.experiments.config.ExperimentConfig` (and therefore inside
every :class:`~repro.experiments.parallel.RunJob`), so a sharded sweep's
workers sample exactly what the sequential path would.  The field defaults
to ``None`` -- *no* telemetry object at all -- which is what keeps
feature-off runs byte-identical to the pre-telemetry simulator: no sampler
process is created, no random stream is drawn, and
``RunResult.canonical_dict`` carries no ``telemetry`` key.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_positive


@dataclass(frozen=True)
class TelemetryConfig:
    """Knobs of the flight recorder attached to one simulation run."""

    #: sampling cadence in simulation seconds.  10 ms keeps a paper-scale
    #: (k=10) port sweep under a few percent of run wall time; drop it for
    #: finer timelines on small fabrics.
    sample_period_s: float = 1e-2
    #: ring-buffer bound per series; the oldest samples are dropped (and
    #: counted) once a series exceeds this.
    max_samples: int = 512
    #: seeded fraction of one period the first tick is offset by, drawn from
    #: the run's ``"telemetry"`` random stream.  Desynchronises the sampler
    #: from periodic protocol timers; 0 pins the first tick to t=0.
    phase_jitter: float = 1.0

    def __post_init__(self) -> None:
        check_positive("sample_period_s", self.sample_period_s)
        check_positive("max_samples", self.max_samples)
        if not 0.0 <= self.phase_jitter <= 1.0:
            raise ValueError(
                f"phase_jitter must be a fraction in [0, 1], got {self.phase_jitter}"
            )
