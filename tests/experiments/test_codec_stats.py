"""End-to-end tests: codec counters flow from sessions into reports.

These run real payload-carrying simulations: the runner synthesises object
bytes, senders encode them through the run's shared
:class:`~repro.rq.backend.CodecContext`, receivers decode, and the run
result carries the block and basis-lookup counters; experiment reports
render the block counters.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import PolyraptorConfig
from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.figure1a import run_figure1a
from repro.experiments.report import format_codec_stats
from repro.experiments.runner import build_environment, offer_transfers, run_transfers
from repro.network.topology import FatTreeTopology
from repro.utils.units import KILOBYTE
from repro.workloads.spec import TransferKind, TransferSpec

PAYLOAD_CONFIG = ExperimentConfig(
    fattree_k=4,
    num_foreground_transfers=4,
    object_bytes=64 * KILOBYTE,
    background_fraction=0.0,
    max_sim_time_s=30.0,
    polyraptor=PolyraptorConfig(carry_payload=True),
)


def _workload() -> list[TransferSpec]:
    return [
        TransferSpec(transfer_id=1, kind=TransferKind.UNICAST, client="h0",
                     peers=("h8",), size_bytes=64_000, start_time=0.0),
        TransferSpec(transfer_id=2, kind=TransferKind.REPLICATE, client="h1",
                     peers=("h9", "h13"), size_bytes=64_000, start_time=0.0),
        TransferSpec(transfer_id=3, kind=TransferKind.FETCH, client="h2",
                     peers=("h10", "h14"), size_bytes=64_000, start_time=0.0),
    ]


class TestCodecStatsEndToEnd:
    def test_payload_run_reports_block_and_lookup_counters(self):
        topology = FatTreeTopology(4)
        result = run_transfers(Protocol.POLYRAPTOR, PAYLOAD_CONFIG, _workload(),
                               topology=topology)
        assert result.completion_fraction == 1.0
        stats = result.codec_stats
        assert stats is not None
        assert stats["blocks_encoded"] >= 3
        cache = stats["plan_cache"]
        # Three same-sized objects share one K': its first lookup in the
        # run's context misses, every later one hits.
        assert cache["misses"] == 1
        assert cache["hits"] >= 1
        assert 0.0 < cache["hit_rate"] < 1.0
        # The canonical snapshot keeps only what the simulation decided.
        assert result.canonical_dict()["codec_stats"] == {
            "blocks_encoded": stats["blocks_encoded"],
            "blocks_decoded": stats["blocks_decoded"],
        }

    def test_payloads_decode_byte_identically(self):
        topology = FatTreeTopology(4)
        env = build_environment(Protocol.POLYRAPTOR, PAYLOAD_CONFIG, topology=topology)
        transfers = _workload()
        offer_transfers(env, Protocol.POLYRAPTOR, transfers)
        env.sim.run(until=30.0)
        from repro.experiments.runner import _object_payload

        receiver_of = {1: "h8", 2: "h9", 3: "h2"}
        for spec in transfers:
            agent = env.polyraptor_agents[receiver_of[spec.transfer_id]]
            session = agent.receiver_session(spec.transfer_id).core
            assert session.completed, f"transfer {spec.transfer_id} incomplete"
            assert session.received_data == _object_payload(spec)

    def test_tcp_runs_have_no_codec_stats(self):
        topology = FatTreeTopology(4)
        transfers = [_workload()[0]]
        result = run_transfers(Protocol.TCP, replace(PAYLOAD_CONFIG), transfers,
                               topology=topology)
        assert result.codec_stats is None

    def test_figure1a_reports_codec_counters(self):
        config = replace(
            PAYLOAD_CONFIG,
            num_foreground_transfers=3,
            object_bytes=48 * KILOBYTE,
        )
        result = run_figure1a(config, replica_counts=(1,),
                              protocols=(Protocol.POLYRAPTOR,))
        label = "1 Replica RQ"
        run = result.runs[label]
        assert run.completion_fraction == 1.0
        assert run.codec_stats is not None
        assert run.codec_stats["plan_cache"]["hits"] >= 1

        rendered = format_codec_stats({label: run.codec_stats})
        assert "blocks enc" in rendered
        assert "plan hits" not in rendered


class TestCodecStatsReport:
    def test_missing_stats_render_as_dashes(self):
        rendered = format_codec_stats({"1 Replica TCP": None})
        assert "1 Replica TCP" in rendered
        assert "-" in rendered
