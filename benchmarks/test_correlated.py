"""Benchmark for the correlated & gray failure experiment.

The resilience benchmark stresses *independent* faults; this one records the
realistic failure models -- shared-risk link groups, a rack power event,
gray loss routing never reacts to, and the same SRLG event under
control-plane convergence lag -- in ``BENCH_correlated.json`` so the
degradation trajectories stay comparable across commits.  The qualitative
claims (Polyraptor completes everything; gray loss hurts the per-flow-ECMP
TCP baseline far more than the sprayed fountain) are asserted before the
artifact is written.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

from benchmarks.conftest import publish
from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.correlated import TABLE, run_correlated
from repro.experiments.report import format_sweep
from repro.utils.units import KILOBYTE

RESULTS_DIR = Path(__file__).parent / "results"

SRLG_SIZES = (1, 3)
GRAY_RATES = (0.01, 0.05)
CONVERGENCE_DELAYS = (0.0, 0.001)
JOBS = 2

SWEEP_CONFIG = ExperimentConfig(
    fattree_k=4,
    num_foreground_transfers=16,
    object_bytes=96 * KILOBYTE,
    background_fraction=0.0,
    offered_load=0.15,
    max_sim_time_s=30.0,
)


def test_correlated_sweep(benchmark):
    start = time.perf_counter()
    sequential = run_correlated(
        SWEEP_CONFIG, srlg_sizes=SRLG_SIZES, gray_rates=GRAY_RATES,
        convergence_delays=CONVERGENCE_DELAYS, jobs=1,
    )
    sequential_s = time.perf_counter() - start
    sharded = benchmark.pedantic(
        lambda: run_correlated(
            SWEEP_CONFIG, srlg_sizes=SRLG_SIZES, gray_rates=GRAY_RATES,
            convergence_delays=CONVERGENCE_DELAYS, jobs=JOBS,
        ),
        rounds=1, iterations=1,
    )

    # Sharding must be invisible in every reported number.
    assert sharded.points == sequential.points
    assert sharded.codec_stats == sequential.codec_stats

    # The correlated models genuinely struck: compound events applied, gray
    # loss smeared without a single reroute, lag black-holed packets.
    for protocol in (Protocol.POLYRAPTOR, Protocol.TCP):
        rack = sharded.point(protocol, "rack").fault_stats
        assert rack["switches_failed"] == 1 and rack["links_failed"] > 0
        gray = sharded.point(protocol, f"gray-{GRAY_RATES[-1]:g}").fault_stats
        assert gray["packets_dropped_random_loss"] > 0
        assert gray["reroutes"] == 0
    lagged_label = f"delay-{CONVERGENCE_DELAYS[-1] * 1e3:g}ms"
    lagged = sharded.point(Protocol.POLYRAPTOR, lagged_label).fault_stats
    assert lagged["recomputes_requested"] == lagged["route_installs"] > 0

    # Qualitative story, asserted BEFORE the artifact is written: spraying +
    # fountain coding ride out every correlated model with bounded
    # degradation, while per-flow ECMP TCP suffers far worse under gray
    # loss (its unlucky flows sit on sick paths for their whole lifetime).
    worst_gray = f"gray-{GRAY_RATES[-1]:g}"
    for label in sharded.cells:
        assert sharded.point(Protocol.POLYRAPTOR, label).completion_fraction == 1.0
    rq_gray = sharded.point(Protocol.POLYRAPTOR, worst_gray).fct_vs_baseline
    tcp_gray = sharded.point(Protocol.TCP, worst_gray).fct_vs_baseline
    assert rq_gray is not None and rq_gray < 3.0
    assert tcp_gray is None or tcp_gray > rq_gray

    def finite_or_none(value):
        return value if value is not None and math.isfinite(value) else None

    record = {
        "parameters": {
            "fattree_k": SWEEP_CONFIG.fattree_k,
            "sessions": SWEEP_CONFIG.num_foreground_transfers,
            "object_kb": SWEEP_CONFIG.object_bytes // KILOBYTE,
            "srlg_sizes": list(SRLG_SIZES),
            "gray_rates": list(GRAY_RATES),
            "convergence_delays_s": list(CONVERGENCE_DELAYS),
            "jobs": JOBS,
        },
        "cpu_count": os.cpu_count() or 1,
        "sequential_s": sequential_s,
        "results_identical": True,
        "series": {
            f"{protocol.value}@{label}": {
                "completed": point.completed,
                "offered": point.offered,
                "median_fct_ms": finite_or_none(point.median_fct_ms),
                "p90_fct_ms": finite_or_none(point.p90_fct_ms),
                "mean_goodput_gbps": point.mean_goodput_gbps,
                "fct_vs_healthy": finite_or_none(point.fct_vs_baseline),
                "fault_stats": point.fault_stats,
            }
            for protocol in (Protocol.POLYRAPTOR, Protocol.TCP)
            for label, point in (
                (lbl, sharded.point(protocol, lbl)) for lbl in sharded.cells
            )
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_correlated.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    publish("extension_correlated", format_sweep(sharded, **TABLE))
