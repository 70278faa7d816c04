"""A registry of named metrics: gauges, counters, histograms and rates.

The registry is the common namespace every instrumented subsystem reports
into -- the :class:`~repro.obs.sampler.TelemetrySampler` snapshots it once
per tick, the :class:`~repro.sim.trace.TraceLog` counts events into it when
bound, and the runner folds end-of-run distributions (flow completion
times) into histograms.  Counters reuse :class:`repro.sim.stats.Counter`
so existing call sites need no adaptation.

Everything here is plain-data and deterministic: :meth:`MetricRegistry
.snapshot` returns a name-sorted dict of JSON-safe values, which is what
lets sharded runs merge telemetry byte-identically.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence, Union

from repro.sim.stats import Counter

#: FCT histogram bounds (milliseconds) used by the runner's end-of-run fold.
DEFAULT_FCT_BOUNDS_MS = (1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0)


class Gauge:
    """A named instantaneous value (last write wins)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's current value."""
        self.value = float(value)

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """A fixed-bound histogram with count/sum, reportable as a plain dict.

    ``bounds`` are the inclusive upper edges of the first ``len(bounds)``
    buckets; one overflow bucket catches everything beyond the last edge.
    """

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        ordered = tuple(float(bound) for bound in bounds)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(f"histogram bounds must be strictly increasing, got {bounds}")
        self.name = name
        self.bounds = ordered
        self.buckets = [0] * (len(ordered) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Add one sample to the appropriate bucket."""
        self.count += 1
        self.sum += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    def as_dict(self) -> dict:
        """A JSON-safe snapshot of the distribution."""
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "count": self.count,
            "sum": self.sum,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, count={self.count})"


Metric = Union[Counter, Gauge, Histogram]


class MetricRegistry:
    """A flat namespace of metrics, created on first use and snapshot-able.

    Re-requesting an existing name returns the same object; requesting it as
    a *different* kind raises -- a name means one thing for the whole run.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def _get(self, name: str, kind: type, factory) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}, "
                f"not {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """The named counter, created at 0 on first use."""
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        """The named gauge, created at 0.0 on first use."""
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_FCT_BOUNDS_MS
    ) -> Histogram:
        """The named histogram, created with ``bounds`` on first use."""
        return self._get(name, Histogram, lambda: Histogram(name, bounds))

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def items(self):
        """(name, metric) pairs in sorted-name order."""
        return sorted(self._metrics.items())

    def snapshot(self) -> dict:
        """A name-sorted, JSON-safe dict of every metric's current value."""
        out: dict = {}
        for name, metric in self.items():
            if isinstance(metric, Histogram):
                out[name] = metric.as_dict()
            else:
                out[name] = metric.value
        return out


class WindowedRate:
    """An event rate (events/second) over a sliding wall- or sim-time window.

    The divisor is the *observed* span, clamped to the window, not the full
    window -- so estimates during the first window of a run are exact rather
    than diluted.  Before any event, and at zero
    observed span (the t=0 edge), the rate is 0.0 rather than a division by
    zero.  Used by the executor's ``--progress`` throughput/ETA line and by
    the telemetry sampler's derived rates.
    """

    def __init__(self, window_s: float = 10.0) -> None:
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        self.window_s = window_s
        self._events: deque[tuple[float, float]] = deque()
        self._origin: Optional[float] = None
        self.total = 0.0

    def reset(self) -> None:
        """Forget every recorded event (a fresh sweep restarts the window)."""
        self._events.clear()
        self._origin = None
        self.total = 0.0

    def record(self, now: float, count: float = 1.0) -> None:
        """Record ``count`` events happening at time ``now``."""
        if self._origin is None:
            self._origin = now
        self._events.append((now, count))
        self.total += count

    def rate(self, now: float) -> float:
        """Events per second over the trailing window ending at ``now``."""
        if self._origin is None:
            return 0.0
        horizon = now - self.window_s
        while self._events and self._events[0][0] < horizon:
            self._events.popleft()
        span = min(self.window_s, now - self._origin)
        if span <= 0.0:
            return 0.0
        return sum(count for _, count in self._events) / span
