"""Benchmark: a 10,000-cell campaign through the persistent worker pool.

The figure benchmarks stress a handful of heavyweight cells; real parameter
studies look the opposite -- thousands of small cells where the executor's
fixed costs (spawn, serialisation, merge) decide whether
sharding pays at all.  This campaign expands ``REPRO_CAMPAIGN_CELLS``
(default 10,000) tiny identity-tracking runs over seeds x transfer kinds
(unicast, fetch) x fault regimes (healthy, SRLG cut, gray loss) and pushes
them through ``execute_jobs`` in one call, recording throughput and the
executor's per-phase profile in ``BENCH_campaign.json``.

Cells are deliberately milliseconds-scale: at this grain any per-cell
dispatch overhead shows up directly in cells/second, which is the number
this benchmark trends.  A deterministic sample of cells is re-run
sequentially and compared by canonical fingerprint, so the campaign also
re-checks the executor's determinism contract at scale.  CI runs the same
file with a small ``REPRO_CAMPAIGN_CELLS`` to keep the leg fast.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from benchmarks.conftest import publish
from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.parallel import (
    RunJob,
    available_cpus,
    execute_jobs,
    last_profile,
    run_job,
    warm_worker_pool,
)
from repro.faults.schedule import gray_failure_schedule, shared_risk_group_schedule
from repro.network.topology import FatTreeTopology
from repro.sim.randomness import RandomStreams
from repro.utils.units import KILOBYTE
from repro.workloads.spec import TransferKind, TransferSpec

RESULTS_DIR = Path(__file__).parent / "results"

#: Cell count; CI overrides this down to keep the leg fast.
CELLS = int(os.environ.get("REPRO_CAMPAIGN_CELLS", "10000"))
BASE_SEED = 1
KINDS = (TransferKind.UNICAST, TransferKind.FETCH)
FAULTS = ("none", "srlg", "gray")

CAMPAIGN_CONFIG = ExperimentConfig(
    fattree_k=4,
    num_foreground_transfers=1,
    object_bytes=8 * KILOBYTE,
    background_fraction=0.0,
    offered_load=0.15,
    max_sim_time_s=5.0,
    seed=BASE_SEED,
)


def _cell_job(index: int, topology: FatTreeTopology) -> RunJob:
    """The ``index``-th campaign cell, fully determined by its index."""
    seed = BASE_SEED + index
    kind = KINDS[index % len(KINDS)]
    fault = FAULTS[(index // len(KINDS)) % len(FAULTS)]
    config = CAMPAIGN_CONFIG.with_seed(seed)
    streams = RandomStreams(seed)
    rng = streams.stream("campaign.workload")
    hosts = list(topology.hosts)
    client = hosts[rng.randrange(len(hosts))]
    peers = [host for host in hosts if host != client]
    if kind is TransferKind.UNICAST:
        chosen = (peers[rng.randrange(len(peers))],)
    else:  # fetch pulls one object striped over two storage peers
        first = rng.randrange(len(peers))
        second = rng.randrange(len(peers) - 1)
        chosen = (peers[first], [p for p in peers if p != peers[first]][second])
    transfer = TransferSpec(
        transfer_id=0,
        kind=kind,
        client=client,
        peers=chosen,
        size_bytes=config.object_bytes,
        start_time=0.0,
        label="campaign",
    )
    fault_rng = streams.stream("campaign.faults")
    if fault == "srlg":
        schedule = shared_risk_group_schedule(
            topology, fault_rng, group_size=2, start_time=0.0, duration=0.01
        )
    elif fault == "gray":
        schedule = gray_failure_schedule(
            topology, fault_rng, loss_probability=0.01, start_time=0.0, duration=0.01
        )
    else:
        schedule = None
    return RunJob(
        key=(seed, kind.value, fault),
        protocol=Protocol.POLYRAPTOR,
        config=config,
        transfers=(transfer,),
        fault_schedule=schedule,
    )


def _fingerprint(run) -> str:
    return json.dumps(run.canonical_dict(), sort_keys=True, default=repr)


def test_campaign_throughput(benchmark):
    topology = FatTreeTopology(CAMPAIGN_CONFIG.fattree_k)
    build_start = time.perf_counter()
    jobs = [_cell_job(index, topology) for index in range(CELLS)]
    build_s = time.perf_counter() - build_start

    # Exercise the pooled path even on a single-core runner: the point is
    # executor overhead per cell, and a 1-worker "pool" would silently take
    # the sequential shortcut instead.
    workers = max(2, available_cpus())
    warm_start = time.perf_counter()
    warm_worker_pool(workers)
    pool_warm_s = time.perf_counter() - warm_start

    def _run():
        start = time.perf_counter()
        results = execute_jobs(jobs, num_workers=workers, label="campaign")
        return results, time.perf_counter() - start

    results, wall_s = benchmark.pedantic(_run, rounds=1, iterations=1)
    profile = last_profile()
    assert profile is not None and profile.jobs_total == CELLS
    cells_per_s = CELLS / wall_s if wall_s > 0 else 0.0

    # Determinism at scale: a deterministic sample of cells, re-run
    # sequentially in this process, must fingerprint identically.
    sample = sorted({0, CELLS // 3, (2 * CELLS) // 3, CELLS - 1})
    for index in sample:
        assert _fingerprint(run_job(jobs[index])) == _fingerprint(results[index]), (
            f"campaign cell {index} ({jobs[index].key}) diverged from "
            f"sequential execution"
        )

    completed = sum(
        1
        for run in results
        for record in run.registry.records
        if record.completed
    )
    record = {
        "parameters": {
            "cells": CELLS,
            "workers": workers,
            "fattree_k": CAMPAIGN_CONFIG.fattree_k,
            "object_kb": CAMPAIGN_CONFIG.object_bytes // KILOBYTE,
            "kinds": [kind.value for kind in KINDS],
            "faults": list(FAULTS),
        },
        "cpu_count": available_cpus(),
        "build_s": build_s,
        "pool_warm_s": pool_warm_s,
        "wall_s": wall_s,
        "cells_per_s": cells_per_s,
        "ms_per_cell": 1e3 * wall_s / CELLS if CELLS else 0.0,
        "completed_transfers": completed,
        "determinism_sample": {"indices": sample, "identical": True},
        "profile": profile.as_dict(),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_campaign.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    publish(
        "campaign",
        f"Campaign: {CELLS} cells ({len(KINDS)} kinds x {len(FAULTS)} fault "
        f"regimes), {workers} workers on {available_cpus()} usable cores "
        f"({profile.transport})\n"
        f"wall: {wall_s:.2f}s   throughput: {cells_per_s:.0f} cells/s   "
        f"per cell: {1e3 * wall_s / CELLS:.2f}ms   "
        f"build: {build_s:.2f}s   pool warm (untimed): {pool_warm_s:.2f}s\n"
        f"completed transfers: {completed}/{CELLS}   "
        f"determinism sample {sample}: identical",
    )

    # Every cell must finish its transfer -- a tiny object on an (at worst
    # briefly) degraded fabric always completes within the time limit.
    assert completed == CELLS
