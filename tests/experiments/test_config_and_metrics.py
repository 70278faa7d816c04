"""Tests for experiment configuration, metrics and report formatting."""

import pytest

from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.metrics import (
    SeriesSummary,
    aggregate_goodput_gbps,
    goodput_rank_series,
    mean_with_confidence,
)
from repro.network.routing import RoutingMode
from repro.transport.base import TransferRegistry
from repro.utils.units import GBPS, MEGABYTE


class TestExperimentConfig:
    def test_defaults_valid(self):
        config = ExperimentConfig()
        assert config.num_hosts == 16
        assert config.arrival_rate_per_second > 0

    def test_num_hosts_formula(self):
        assert ExperimentConfig(fattree_k=10).num_hosts == 250

    def test_background_count_fraction(self):
        config = ExperimentConfig(num_foreground_transfers=80, background_fraction=0.2)
        total = 80 + config.num_background_transfers
        assert config.num_background_transfers / total == pytest.approx(0.2, abs=0.02)

    def test_zero_background(self):
        assert ExperimentConfig(background_fraction=0.0).num_background_transfers == 0

    def test_paper_scale_matches_caption(self):
        config = ExperimentConfig.paper_scale()
        assert config.num_hosts == 250
        assert config.object_bytes == 4 * MEGABYTE
        assert config.network_config(Protocol.POLYRAPTOR).link_rate_bps == 1 * GBPS
        # lambda = 2560 in the paper; the load-derived rate must be close.
        assert config.arrival_rate_per_second == pytest.approx(2560, rel=0.05)

    def test_network_config_per_protocol(self):
        config = ExperimentConfig()
        polyraptor = config.network_config(Protocol.POLYRAPTOR)
        tcp = config.network_config(Protocol.TCP)
        assert polyraptor.switch_queue == "trimming"
        assert polyraptor.routing_mode is RoutingMode.PACKET_SPRAY
        assert tcp.switch_queue == "droptail"
        assert tcp.routing_mode is RoutingMode.ECMP_FLOW
        assert not polyraptor.ecn_enabled and not tcp.ecn_enabled

    def test_only_the_tcp_fabric_marks(self):
        config = ExperimentConfig(ecn_enabled=True)
        assert config.network_config(Protocol.POLYRAPTOR).ecn_enabled is False
        assert config.network_config(Protocol.TCP).ecn_enabled is True

    def test_with_seed(self):
        config = ExperimentConfig(seed=1)
        assert config.with_seed(9).seed == 9
        assert config.seed == 1

    def test_rejects_odd_k(self):
        with pytest.raises(ValueError):
            ExperimentConfig(fattree_k=5)


class TestMetrics:
    def _registry(self):
        registry = TransferRegistry()
        for transfer_id, (goodput_label, duration) in enumerate(
            [("foreground", 1.0), ("foreground", 2.0), ("background", 1.0)]
        ):
            registry.record_start(transfer_id, 1_000_000, 0.0, label=goodput_label)
            registry.record_completion(transfer_id, duration)
        return registry

    def test_rank_series_sorted(self):
        series = goodput_rank_series(self._registry(), "foreground")
        assert len(series) == 2
        assert series[0][1] <= series[1][1]
        assert [rank for rank, _ in series] == [0, 1]

    def test_aggregate_goodput(self):
        registry = self._registry()
        # 3 MB delivered over 2 seconds = 12 Mbit / 2 s = 0.012 Gbps.
        assert aggregate_goodput_gbps(registry) == pytest.approx(0.012)

    def test_aggregate_goodput_empty(self):
        assert aggregate_goodput_gbps(TransferRegistry()) == 0.0

    def test_series_summary(self):
        summary = SeriesSummary.from_goodputs("x", [0.1, 0.5, 0.9])
        assert summary.count == 3
        assert summary.mean_gbps == pytest.approx(0.5)
        assert summary.min_gbps == 0.1
        assert summary.max_gbps == 0.9

    def test_series_summary_empty_raises(self):
        with pytest.raises(ValueError):
            SeriesSummary.from_goodputs("x", [])

    def test_mean_with_confidence(self):
        mean, ci = mean_with_confidence([1.0, 1.0, 1.0])
        assert mean == 1.0
        assert ci == pytest.approx(0.0)


class TestReportFormatting:
    def test_format_overhead_table(self):
        from repro.experiments.ablations import OverheadPoint
        from repro.experiments.report import format_overhead

        text = format_overhead([OverheadPoint(overhead=2, trials=10, failures=0)])
        assert "overhead symbols" in text
        assert "0.000" in text

    def test_format_ablation_table(self):
        from repro.experiments.ablations import AblationPoint
        from repro.experiments.report import format_ablation

        text = format_ablation(
            [AblationPoint(label="trimming", goodput_gbps=0.9, trimmed_packets=5)],
            "A1",
        )
        assert "A1" in text and "trimming" in text and "0.900" in text
