"""Integration tests: telemetry through the runner, executor, and CLI trace.

The central contracts: telemetry OFF leaves results byte-identical to a
build without the telemetry layer; telemetry ON observes without perturbing
(every transfer metric matches the OFF run exactly); and sharded sweeps
record byte-identical telemetry for any worker count.
"""

import json
from dataclasses import replace

import pytest

from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.parallel import (
    RunJob,
    clear_telemetry,
    collected_telemetry,
    execute_jobs,
)
from repro.experiments.report import format_trace, sparkline
from repro.experiments.runner import run_transfers
from repro.network.topology import FatTreeTopology
from repro.obs import TelemetryConfig, read_telemetry_jsonl, write_telemetry_jsonl
from repro.sim.trace import TraceLog
from repro.utils.units import KILOBYTE
from repro.workloads.spec import TransferKind, TransferSpec


TINY = ExperimentConfig(
    fattree_k=4,
    num_foreground_transfers=6,
    object_bytes=96 * KILOBYTE,
    background_fraction=0.2,
    max_sim_time_s=30.0,
)


def _workload(count=4, size=64_000):
    return [
        TransferSpec(transfer_id=i, kind=TransferKind.UNICAST, client=f"h{i}",
                     peers=(f"h{i + 8}",), size_bytes=size, start_time=0.0)
        for i in range(count)
    ]


def _canonical(result):
    return json.dumps(result.canonical_dict(), sort_keys=True, default=str)


class TestTelemetryConfig:
    def test_defaults(self):
        config = TelemetryConfig()
        assert config.sample_period_s == pytest.approx(1e-2)

    def test_validation(self):
        with pytest.raises(ValueError):
            TelemetryConfig(sample_period_s=0.0)
        with pytest.raises(ValueError):
            TelemetryConfig(max_samples=0)


class TestRunnerTelemetry:
    @pytest.fixture(scope="class")
    def runs(self):
        topology = FatTreeTopology(4)
        transfers = _workload()
        on_config = replace(TINY, telemetry=TelemetryConfig())
        out = {}
        for tag, config in (("off", TINY), ("on", on_config)):
            out[tag] = run_transfers(
                Protocol.POLYRAPTOR, config, transfers, topology=topology
            )
        out["on_again"] = run_transfers(
            Protocol.POLYRAPTOR, on_config, transfers, topology=topology
        )
        return out

    def test_off_has_no_telemetry_key(self, runs):
        assert runs["off"].telemetry is None
        assert "telemetry" not in runs["off"].canonical_dict()

    def test_on_does_not_perturb_transfers(self, runs):
        """The sampler only observes: every per-transfer metric is identical.

        Only ``events_processed`` may differ (the sampler's own ticks are
        events), which is deterministic and documented.
        """
        off = runs["off"].canonical_dict()
        on = runs["on"].canonical_dict()
        on.pop("telemetry")
        off.pop("events_processed")
        on.pop("events_processed")
        assert json.dumps(off, sort_keys=True, default=str) == json.dumps(
            on, sort_keys=True, default=str
        )

    def test_on_is_reproducible(self, runs):
        assert _canonical(runs["on"]) == _canonical(runs["on_again"])

    def test_telemetry_payload_shape(self, runs):
        telemetry = runs["on"].telemetry
        assert telemetry["schema"] == 1
        assert telemetry["ticks"] >= 1
        assert telemetry["series"]  # a loaded fabric records something
        assert "fct_ms" in telemetry["metrics"]
        assert telemetry["metrics"]["fct_ms"]["count"] == 4
        # every series payload is the plain ring-buffer dict
        for series in telemetry["series"].values():
            assert set(series) == {"t", "v", "dropped", "total"}
            assert len(series["t"]) == len(series["v"])

    def test_sim_time_not_extended_by_sampler(self, runs):
        assert runs["on"].sim_time_s == runs["off"].sim_time_s

    def test_sampler_stops_when_sim_drains(self):
        """An empty workload drains immediately: the sampler must not spin."""
        config = replace(TINY, telemetry=TelemetryConfig())
        result = run_transfers(
            Protocol.POLYRAPTOR, config, [], topology=FatTreeTopology(4)
        )
        assert result.telemetry["ticks"] <= 1
        assert result.sim_time_s == TINY.max_sim_time_s

    def test_trace_counters_flow_into_registry(self):
        config = replace(TINY, telemetry=TelemetryConfig())
        trace = TraceLog(enabled=True)
        # An incast onto one host overloads its edge link, so the trimming
        # fabric records switch.trim events -- which must surface as
        # ``trace.*`` counters in the telemetry metrics snapshot.
        incast = [
            TransferSpec(transfer_id=i, kind=TransferKind.UNICAST,
                         client=f"h{i + 4}", peers=("h0",), size_bytes=64_000,
                         start_time=0.0)
            for i in range(6)
        ]
        result = run_transfers(
            Protocol.POLYRAPTOR, config, incast, trace=trace,
            topology=FatTreeTopology(4),
        )
        metrics = result.telemetry["metrics"]
        trace_counts = {k: v for k, v in metrics.items() if k.startswith("trace.")}
        assert trace_counts, "an enabled trace should count events into the registry"
        assert sum(trace_counts.values()) == len(trace) + trace.dropped


class TestFaultTelemetry:
    def test_fault_counters_sampled(self):
        from repro.faults.schedule import FaultSchedule, link_down

        config = replace(TINY, telemetry=TelemetryConfig())
        schedule = FaultSchedule((link_down(0.001, "edge0_0", "agg0_0"),))
        result = run_transfers(
            Protocol.POLYRAPTOR, config, _workload(), topology=FatTreeTopology(4),
            fault_schedule=schedule,
        )
        names = set(result.telemetry["series"])
        assert any(name.startswith("faults.") for name in names)
        assert result.completion_fraction == 1.0


class TestShardedTelemetry:
    def _jobs(self):
        config = replace(TINY, telemetry=TelemetryConfig())
        transfers = tuple(_workload())
        return [
            RunJob(key=(seed, protocol.value), protocol=protocol,
                   config=config.with_seed(seed), transfers=transfers)
            for seed in (1, 2) for protocol in (Protocol.POLYRAPTOR, Protocol.TCP)
        ]

    def _collect(self, num_workers):
        clear_telemetry()
        execute_jobs(self._jobs(), num_workers=num_workers, label="sweep")
        records = collected_telemetry()
        return json.dumps([r.canonical() for r in records], sort_keys=True)

    def test_jobs2_matches_sequential(self):
        assert self._collect(1) == self._collect(2)

    def test_no_telemetry_collects_nothing(self):
        clear_telemetry()
        jobs = [
            RunJob(key=1, protocol=Protocol.POLYRAPTOR, config=TINY,
                   transfers=tuple(_workload(2)))
        ]
        execute_jobs(jobs, num_workers=1, label="plain")
        assert collected_telemetry() == []


class TestTraceRendering:
    def test_sparkline_scales_and_pads(self):
        line = sparkline([0.0, 1.0], width=10)
        assert len(line) == 10
        assert line[0] == " "

    def test_sparkline_constant_and_empty(self):
        assert set(sparkline([5.0, 5.0], width=4)) != {" "}
        assert sparkline([], width=4) == "    "

    def test_cli_trace_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        config = replace(TINY, telemetry=TelemetryConfig())
        result = run_transfers(
            Protocol.POLYRAPTOR, config, _workload(), topology=FatTreeTopology(4)
        )
        from repro.obs.recorder import TelemetryRecord

        path = tmp_path / "telemetry.jsonl"
        write_telemetry_jsonl(
            [TelemetryRecord(label="demo", key=1, data=result.telemetry)], path
        )
        assert main(["trace", str(path), "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "label='demo'" in out
        assert "|" in out

    def test_format_trace_filters_series(self):
        telemetry = {
            "meta": {"schema": 1},
            "runs": [{"label": "x", "key": 1, "ticks": 2, "metrics": {}}],
            "series": [
                {"label": "x", "key": 1, "name": "queue.depth.p0",
                 "t": [0.0], "v": [1.0], "dropped": 0, "total": 1},
                {"label": "x", "key": 1, "name": "gray.detected.h0",
                 "t": [0.0], "v": [2.0], "dropped": 0, "total": 1},
            ],
        }
        text = format_trace(telemetry, series="queue.*")
        assert "queue.depth.p0" in text
        assert "gray.detected.h0" not in text

    def test_format_trace_empty(self):
        assert "no runs" in format_trace({"meta": {}, "runs": [], "series": []})


class TestCliTelemetryExport:
    def test_incast_writes_jsonl(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "incast.jsonl"
        exit_code = main([
            "incast", "--fanins", "2", "--response-kb", "32",
            "--max-sim-time", "5", "--telemetry", str(path),
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert path.exists()
        parsed = read_telemetry_jsonl(path)
        assert parsed["runs"]
        assert "telemetry: wrote" in captured.err
        # stdout stays the experiment tables only
        assert "telemetry" not in captured.out

    def test_csv_suffix_switches_format(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "incast.csv"
        exit_code = main([
            "incast", "--fanins", "2", "--response-kb", "32",
            "--max-sim-time", "5", "--telemetry", str(path),
        ])
        capsys.readouterr()
        assert exit_code == 0
        header = path.read_text().splitlines()[0]
        assert header == "label,key,series,t,value"
