"""Benchmark for the path-resilience experiment under injected faults.

The paper's core claim -- fountain coding over redundant paths is robust to
path loss -- is only testable on a fabric that actually breaks.  This
benchmark runs the resilience degradation sweep (healthy baseline plus two
fault intensities, both protocols), asserts the sharded run is identical to
the sequential one, and records the FCT degradation ratios and fault
counters in ``BENCH_resilience.json`` so trajectories stay comparable across
commits.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

from benchmarks.conftest import publish
from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.report import format_sweep
from repro.experiments.resilience import TABLE, run_resilience
from repro.utils.units import KILOBYTE

RESULTS_DIR = Path(__file__).parent / "results"

INTENSITIES = (0.0, 0.5, 1.0)
JOBS = 2

SWEEP_CONFIG = ExperimentConfig(
    fattree_k=4,
    num_foreground_transfers=16,
    object_bytes=96 * KILOBYTE,
    background_fraction=0.0,
    offered_load=0.15,
    max_sim_time_s=30.0,
)


def test_resilience_sweep(benchmark):
    start = time.perf_counter()
    sequential = run_resilience(SWEEP_CONFIG, intensities=INTENSITIES, jobs=1)
    sequential_s = time.perf_counter() - start
    sharded = benchmark.pedantic(
        lambda: run_resilience(SWEEP_CONFIG, intensities=INTENSITIES, jobs=JOBS),
        rounds=1, iterations=1,
    )

    # Sharding must be invisible in every reported number.
    assert sharded.points == sequential.points
    assert sharded.codec_stats == sequential.codec_stats

    # Faults genuinely struck: events applied, routes recomputed.
    for protocol in (Protocol.POLYRAPTOR, Protocol.TCP):
        for intensity in INTENSITIES[1:]:
            stats = sharded.point(protocol, intensity).fault_stats
            assert stats["events_applied"] > 0
            assert stats["reroutes"] > 0

    # The qualitative story, asserted BEFORE the artifact is written so a
    # failing run never leaves a plausible-looking json behind: Polyraptor
    # keeps completing everything it is offered even at the heaviest
    # intensity (spraying + fountain coding route around the damage) and its
    # FCT degradation stays bounded.
    worst = sharded.point(Protocol.POLYRAPTOR, INTENSITIES[-1])
    assert worst.completion_fraction == 1.0
    assert worst.fct_vs_baseline is not None and worst.fct_vs_baseline < 3.0

    def finite_or_none(value):
        return value if value is not None and math.isfinite(value) else None

    record = {
        "parameters": {
            "fattree_k": SWEEP_CONFIG.fattree_k,
            "sessions": SWEEP_CONFIG.num_foreground_transfers,
            "object_kb": SWEEP_CONFIG.object_bytes // KILOBYTE,
            "intensities": list(INTENSITIES),
            "jobs": JOBS,
        },
        "cpu_count": os.cpu_count() or 1,
        "sequential_s": sequential_s,
        "results_identical": True,
        "series": {
            f"{protocol.value}@{intensity}": {
                "completed": point.completed,
                "offered": point.offered,
                # Undefined medians (no completed transfers) serialise as
                # null -- float('inf') is not valid RFC 8259 JSON.
                "median_fct_ms": finite_or_none(point.median_fct_ms),
                "p90_fct_ms": finite_or_none(point.p90_fct_ms),
                "mean_goodput_gbps": point.mean_goodput_gbps,
                "fct_vs_healthy": finite_or_none(point.fct_vs_baseline),
                "fault_stats": point.fault_stats,
            }
            for (protocol, intensity), point in (
                ((p, i), sharded.point(p, i))
                for p in (Protocol.POLYRAPTOR, Protocol.TCP)
                for i in INTENSITIES
            )
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_resilience.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    publish("extension_resilience", format_sweep(sharded, **TABLE))
