"""Benchmark for the network-hotspot extension experiment.

The paper's discussion lists hotspot behaviour as work in progress; this
benchmark provides the experiment: measured permutation transfers share the
fabric with aggressors that keep one rack's uplinks persistently hot.
Per-packet spraying (Polyraptor) routes around the hot links; per-flow ECMP
(TCP) cannot.
"""

from __future__ import annotations

from benchmarks.conftest import publish
from repro.experiments.config import Protocol
from repro.experiments.hotspot import TABLE, run_hotspot_experiment
from repro.experiments.report import format_table


def test_hotspot_extension(benchmark, config):
    results = benchmark.pedantic(
        lambda: run_hotspot_experiment(config, num_measured=8, num_aggressors=6),
        rounds=1, iterations=1,
    )
    publish("extension_hotspot", format_table(results.values(), **TABLE))

    rq = results[Protocol.POLYRAPTOR]
    tcp = results[Protocol.TCP]
    assert rq.completion_fraction == 1.0
    assert rq.mean_goodput_gbps >= tcp.mean_goodput_gbps
    assert rq.p10_goodput_gbps >= tcp.p10_goodput_gbps
