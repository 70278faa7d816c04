"""Tests for the TCP replication / multi-source-fetch emulations."""

import pytest

from repro.transport.tcp.multiunicast import start_multi_source_fetch, start_replicated_push
from tests.conftest import TcpTestbed


class TestReplicatedPush:
    def test_all_replicas_receive_full_object(self):
        bed = TcpTestbed()
        replicas = ["h4", "h8", "h12"]
        flow_ids = start_replicated_push(
            bed.agents["h0"],
            [bed.host_id(name) for name in replicas],
            object_bytes=200_000,
            transfer_id=1,
            on_complete=bed.record(1, 200_000),
        )
        bed.run()
        assert len(flow_ids) == 3
        record = bed.registry.get(1)
        assert record.completed
        assert record.transfer_bytes == 200_000
        for name in replicas:
            receiver_flows = [fid for fid in flow_ids if fid in bed.agents[name]._receivers]
            assert len(receiver_flows) == 1
            assert bed.agents[name].receiver(receiver_flows[0]).cumulative_ack == 200_000

    def test_completion_waits_for_slowest_replica(self):
        bed = TcpTestbed()
        completion_times = []
        start_replicated_push(
            bed.agents["h0"],
            [bed.host_id("h4"), bed.host_id("h8")],
            object_bytes=200_000,
            transfer_id=2,
            on_complete=completion_times.append,
        )
        bed.run()
        senders = [bed.agents["h0"].sender(flow) for flow in (2000, 2001)]
        assert completion_times == [max(s.completion_time for s in senders)]

    def test_three_replicas_slower_than_one(self):
        single = TcpTestbed(seed=5)
        start_replicated_push(single.agents["h0"], [single.host_id("h12")],
                              object_bytes=500_000, transfer_id=1,
                              on_complete=single.record(1, 500_000))
        single.run()
        triple = TcpTestbed(seed=5)
        start_replicated_push(
            triple.agents["h0"],
            [triple.host_id("h12"), triple.host_id("h8"), triple.host_id("h4")],
            object_bytes=500_000, transfer_id=1, on_complete=triple.record(1, 500_000),
        )
        triple.run()
        # Multi-unicast pushes three full copies through one uplink: the
        # replicated transfer must be markedly slower.
        assert (triple.registry.get(1).goodput_gbps
                < 0.6 * single.registry.get(1).goodput_gbps)

    def test_requires_at_least_one_replica(self):
        bed = TcpTestbed()
        with pytest.raises(ValueError):
            start_replicated_push(bed.agents["h0"], [], 1000, transfer_id=1)


class TestMultiSourceFetch:
    def test_shares_cover_whole_object(self):
        bed = TcpTestbed()
        object_bytes = 300_001  # deliberately not divisible by 3
        start_multi_source_fetch(
            [bed.agents[name] for name in ("h4", "h8", "h12")],
            bed.host_id("h0"),
            object_bytes,
            transfer_id=3,
            on_complete=bed.record(3, object_bytes),
        )
        bed.run()
        record = bed.registry.get(3)
        assert record.completed
        received = sum(
            receiver.cumulative_ack
            for receiver in bed.agents["h0"]._receivers.values()
        )
        assert received == object_bytes

    def test_single_source_fetch_equivalent_to_unicast(self):
        bed = TcpTestbed()
        start_multi_source_fetch(
            [bed.agents["h12"]], bed.host_id("h0"), 200_000,
            transfer_id=4, on_complete=bed.record(4, 200_000),
        )
        bed.run()
        assert bed.registry.get(4).completed

    def test_requires_at_least_one_source(self):
        bed = TcpTestbed()
        with pytest.raises(ValueError):
            start_multi_source_fetch([], bed.host_id("h0"), 1000, transfer_id=5)
