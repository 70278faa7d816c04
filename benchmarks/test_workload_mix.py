"""Benchmark for the heavy-tailed workload-mix extension experiment."""

from __future__ import annotations

from benchmarks.conftest import publish
from repro.experiments.config import Protocol
from repro.experiments.report import format_table
from repro.experiments.workload_mix import TABLE, run_workload_mix


def test_workload_mix_extension(benchmark, config):
    results = benchmark.pedantic(
        lambda: run_workload_mix(config, num_transfers=30), rounds=1, iterations=1
    )
    publish("extension_workload_mix", format_table(results.values(), **TABLE))

    rq = results[Protocol.POLYRAPTOR]
    tcp = results[Protocol.TCP]
    assert rq.completion_fraction == 1.0
    # Short flows stay fast and elephants keep making progress under Polyraptor.
    assert rq.short_median_fct_ms < 5.0
    assert rq.long_median_goodput_gbps > 0.3
    # Polyraptor's short-flow latency is competitive with TCP's.
    assert rq.short_median_fct_ms <= 2.0 * tcp.short_median_fct_ms
