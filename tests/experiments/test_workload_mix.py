"""Tests for the heavy-tailed workload-mix extension experiment."""

import pytest

from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.report import format_table
from repro.experiments.workload_mix import TABLE, run_workload_mix
from repro.utils.units import KILOBYTE


SMALL = ExperimentConfig(
    fattree_k=4,
    num_foreground_transfers=8,
    object_bytes=96 * KILOBYTE,
    offered_load=0.15,
    max_sim_time_s=30.0,
)


class TestWorkloadMix:
    @pytest.fixture(scope="class")
    def results(self):
        return run_workload_mix(
            SMALL,
            num_transfers=16,
            min_bytes=20_000,
            max_bytes=500_000,
            short_threshold_bytes=60_000,
        )

    def test_both_protocols_reported(self, results):
        assert set(results) == {Protocol.POLYRAPTOR, Protocol.TCP}

    def test_everything_completes_under_polyraptor(self, results):
        assert results[Protocol.POLYRAPTOR].completion_fraction == 1.0

    def test_short_flow_fct_is_sub_millisecond_scale(self, results):
        # Short flows on a lightly loaded 1 Gbps fabric finish in at most a few ms.
        assert results[Protocol.POLYRAPTOR].short_median_fct_ms < 5.0

    def test_long_flows_achieve_reasonable_goodput(self, results):
        assert results[Protocol.POLYRAPTOR].long_median_goodput_gbps > 0.3

    def test_polyraptor_short_flows_not_slower_than_tcp(self, results):
        # The systematic prefix means short, loss-free transfers carry no
        # decoding penalty, so Polyraptor's short-flow latency should be in
        # the same ballpark as TCP's (or better under contention).
        rq = results[Protocol.POLYRAPTOR].short_median_fct_ms
        tcp = results[Protocol.TCP].short_median_fct_ms
        assert rq <= 2.0 * tcp

    def test_format_renders_both_rows(self, results):
        text = format_table(results.values(), **TABLE)
        assert "polyraptor" in text
        assert "tcp" in text
        assert "short median FCT ms" in text
