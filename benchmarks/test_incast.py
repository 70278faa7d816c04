"""Benchmark for the incast congestion-reaction experiment.

Records the fan-in sweep -- Polyraptor, TCP with ECN marking off and TCP
with marking on -- in ``BENCH_incast.json`` so the FCT-tail trajectories
stay comparable across commits.  The headline claim is asserted before the
artifact is written: under deep fan-in (>= 16 synchronised senders on a k=6
fabric) ECN marking plus TCP's RFC 3168 reaction (halve cwnd at most once
per window) reduces TCP's p99 FCT against the marking-off baseline -- the
marking-off tail stacks several 200 ms retransmission timeouts on its worst
flow, while marked senders back off before the drop-tail queue overflows in
post-first-window rounds.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

from benchmarks.conftest import publish
from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.incast import MARK_OFF, MARK_ON, TABLE, run_incast
from repro.experiments.report import format_sweep
from repro.utils.units import KILOBYTE

RESULTS_DIR = Path(__file__).parent / "results"

#: k=6 gives 54 hosts, so fan-ins past the k=4 ceiling (15) are reachable.
FANINS = (8, 16)
RESPONSE_BYTES = 256 * KILOBYTE
NUM_SEEDS = 2
JOBS = 2

SWEEP_CONFIG = ExperimentConfig(
    fattree_k=6,
    num_foreground_transfers=1,
    object_bytes=64 * KILOBYTE,
    background_fraction=0.0,
    max_sim_time_s=30.0,
)


def test_incast_sweep(benchmark):
    start = time.perf_counter()
    sequential = run_incast(
        SWEEP_CONFIG, fanins=FANINS, response_bytes=RESPONSE_BYTES,
        num_seeds=NUM_SEEDS, jobs=1,
    )
    sequential_s = time.perf_counter() - start
    sharded = benchmark.pedantic(
        lambda: run_incast(
            SWEEP_CONFIG, fanins=FANINS, response_bytes=RESPONSE_BYTES,
            num_seeds=NUM_SEEDS, jobs=JOBS,
        ),
        rounds=1, iterations=1,
    )

    # Sharding must be invisible in every reported number, including the new
    # congestion-reaction counters.
    assert sharded.points == sequential.points
    assert sharded.codec_stats == sequential.codec_stats

    # One Polyraptor row per fan-in: its trimming fabric never marks.
    poly_cells = [cell for series, cell in sharded.points if series == Protocol.POLYRAPTOR.value]
    assert poly_cells == [f"fanin-{fanin}/{MARK_OFF}" for fanin in FANINS]

    # TCP's reaction genuinely ran in the mark-on cells and stayed
    # completely inert in the mark-off cells.
    deep = FANINS[-1]
    for series, cell in sharded.points:
        if cell.endswith(MARK_OFF):
            assert sharded.points[(series, cell)].transport_stats is None
    tcp_stats = sharded.point(Protocol.TCP, f"fanin-{deep}/{MARK_ON}").transport_stats
    assert tcp_stats["ecn_marks"] > 0
    assert tcp_stats["ecn_echoes"] > 0 and tcp_stats["ecn_reactions"] > 0

    # Headline claim, asserted BEFORE the artifact is written: under deep
    # fan-in, marking + reaction shortens TCP's FCT tail.  Everything
    # completes either way (no starvation); the tail quantile is the story.
    for point in sharded.points.values():
        assert point.completion_fraction == 1.0
    tcp_off = sharded.point(Protocol.TCP, f"fanin-{deep}/{MARK_OFF}")
    tcp_on = sharded.point(Protocol.TCP, f"fanin-{deep}/{MARK_ON}")
    assert tcp_on.p99_fct_ms < tcp_off.p99_fct_ms
    assert tcp_on.median_fct_ms < tcp_off.median_fct_ms

    def finite_or_none(value):
        return value if value is not None and math.isfinite(value) else None

    record = {
        "parameters": {
            "fattree_k": SWEEP_CONFIG.fattree_k,
            "fanins": list(FANINS),
            "response_kb": RESPONSE_BYTES // KILOBYTE,
            "num_seeds": NUM_SEEDS,
            "jobs": JOBS,
        },
        "cpu_count": os.cpu_count() or 1,
        "sequential_s": sequential_s,
        "results_identical": True,
        "series": {
            f"{protocol}@{label}": {
                "completed": point.completed,
                "offered": point.offered,
                "median_fct_ms": finite_or_none(point.median_fct_ms),
                "p90_fct_ms": finite_or_none(point.p90_fct_ms),
                "p99_fct_ms": finite_or_none(point.p99_fct_ms),
                "mean_goodput_gbps": point.mean_goodput_gbps,
                "fct_vs_unmarked": finite_or_none(point.fct_vs_baseline),
                "transport_stats": point.transport_stats,
            }
            for protocol in sharded.series
            for label in sharded.cells
            if (point := sharded.points.get((protocol, label))) is not None
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_incast.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    publish("extension_incast", format_sweep(sharded, **TABLE))
