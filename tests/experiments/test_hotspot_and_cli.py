"""Tests for the hotspot extension experiment and the command-line interface."""

import pytest

from repro.cli import ALL, SCENARIOS, build_parser
from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.hotspot import TABLE, run_hotspot_experiment
from repro.experiments.report import format_table
from repro.utils.units import KILOBYTE


SMALL = ExperimentConfig(
    fattree_k=4,
    num_foreground_transfers=8,
    object_bytes=96 * KILOBYTE,
    offered_load=0.15,
    max_sim_time_s=30.0,
)


class TestHotspotExperiment:
    @pytest.fixture(scope="class")
    def results(self):
        return run_hotspot_experiment(
            SMALL, num_measured=6, num_aggressors=4, aggressor_bytes=1_000_000
        )

    def test_both_protocols_reported(self, results):
        assert set(results) == {Protocol.POLYRAPTOR, Protocol.TCP}

    def test_measured_flows_complete_under_polyraptor(self, results):
        assert results[Protocol.POLYRAPTOR].completion_fraction == 1.0

    def test_polyraptor_not_worse_than_tcp_under_hotspot(self, results):
        rq = results[Protocol.POLYRAPTOR]
        tcp = results[Protocol.TCP]
        assert rq.mean_goodput_gbps >= tcp.mean_goodput_gbps

    def test_spraying_protects_the_worst_flow(self, results):
        rq = results[Protocol.POLYRAPTOR]
        tcp = results[Protocol.TCP]
        # Per-flow ECMP can pin an unlucky TCP flow to a hot path; spraying
        # spreads every Polyraptor session over all paths, so its worst
        # measured flow should be no slower than TCP's worst measured flow.
        assert rq.p10_goodput_gbps >= tcp.p10_goodput_gbps

    def test_table_renders_all_protocols(self, results):
        text = format_table(results.values(), **TABLE)
        assert "polyraptor" in text
        assert "tcp" in text
        assert "mean Gbps" in text


class TestCli:
    def test_parser_knows_all_commands(self):
        parser = build_parser()
        assert len(SCENARIOS) == 9
        for scenario in (*SCENARIOS, ALL):
            args = parser.parse_args([scenario.name])
            assert args.command == scenario.name
            assert args.handler is scenario.run

    @pytest.mark.parametrize("seeds", ["0", "-1", "two"])
    @pytest.mark.parametrize(
        "command", [scenario.name for scenario in (*SCENARIOS, ALL) if scenario.takes_seeds]
    )
    def test_seeds_must_be_a_positive_integer(self, command, seeds, capsys):
        # `--seeds 0` used to reach the sweep: a KeyError traceback from
        # resilience/correlated/incast, a ValueError from figure1c, an empty
        # table from figure1a.
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--seeds", seeds])
        assert "--seeds must be" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["figure1a", "--sessions", "0"],
        ["figure1a", "--object-kb", "0"],
        ["figure1a", "--max-sim-time", "0"],
        ["figure1a", "--load", "0"],
        ["figure1a", "--load", "nan"],
        ["figure1a", "--fattree-k", "3"],
        ["figure1a", "--telemetry", "--telemetry-period-ms", "0"],
        ["figure1a", "--telemetry", "--telemetry-samples", "0"],
        ["figure1c", "--senders", "0"],
        ["incast", "--response-kb", "0"],
        ["incast", "--fanins", "4", "4"],
        ["trace", "no/such/telemetry.jsonl"],
    ], ids=" ".join)
    def test_bad_option_is_a_usage_error(self, argv, capsys):
        """One ``repro <cmd>: error:`` line and exit status 2, not a traceback."""
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if ": error: " in line]
        assert len(errors) == 1 and errors[0].startswith(f"repro {argv[0]}: error: ")
        assert "Traceback" not in err

    def test_parser_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    def test_cli_figure1c_smoke(self, capsys):
        from repro.cli import main

        exit_code = main([
            "figure1c",
            "--sessions", "4",
            "--object-kb", "64",
            "--senders", "2",
            "--response-kb", "64",
            "--seeds", "1",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "senders" in captured.out
        assert "RQ 64KB" in captured.out
        assert "TCP 64KB" in captured.out

    def test_cli_custom_fabric_arguments(self):
        args = build_parser().parse_args(
            ["figure1a", "--fattree-k", "6", "--sessions", "10", "--load", "0.1"]
        )
        assert args.fattree_k == 6
        assert args.sessions == 10
        assert args.load == pytest.approx(0.1)

    def test_cli_paper_scale_selects_paper_fabric(self):
        from repro.cli import _build_config
        from repro.experiments.config import ExperimentConfig

        args = build_parser().parse_args(
            ["resilience", "--paper-scale", "--seed", "7"]
        )
        config = _build_config(args)
        preset = ExperimentConfig.paper_fabric()
        assert config.fattree_k == 10
        assert config.num_hosts == 250
        assert config.num_foreground_transfers == preset.num_foreground_transfers
        assert config.offered_load == pytest.approx(preset.offered_load)
        assert config.seed == 7
