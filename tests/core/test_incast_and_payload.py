"""Tests for Incast behaviour and for real-payload (encode/decode) sessions."""

import os

import pytest

from repro.core.config import PolyraptorConfig
from repro.utils.units import KILOBYTE
from tests.conftest import PolyraptorTestbed


class TestIncastElimination:
    def test_many_synchronised_senders_do_not_collapse(self):
        bed = PolyraptorTestbed(seed=2)
        destination = bed.host_id("h0")
        sender_names = [name for name in bed.network.host_names if name != "h0"][:12]
        for index, name in enumerate(sender_names):
            bed.agents[name].start_push_session(
                100 + index, 70 * KILOBYTE, [destination],
                on_complete=bed.record(100 + index, 70 * KILOBYTE),
            )
        bed.run(until=10.0)
        records = [bed.registry.get(100 + i) for i in range(len(sender_names))]
        assert all(record.completed for record in records)
        total_bytes = sum(record.transfer_bytes for record in records)
        span = max(r.completion_time for r in records) - min(r.start_time for r in records)
        aggregate_gbps = total_bytes * 8 / span / 1e9
        # The receiver link is 1 Gbps; Polyraptor should keep it well utilised.
        assert aggregate_gbps > 0.6

    def test_trimming_occurs_but_nothing_is_dropped(self):
        bed = PolyraptorTestbed(seed=2)
        destination = bed.host_id("h0")
        sender_names = [name for name in bed.network.host_names if name != "h0"][:12]
        for index, name in enumerate(sender_names):
            bed.agents[name].start_push_session(100 + index, 256 * KILOBYTE, [destination])
        bed.run(until=10.0)
        assert bed.network.total_trimmed_packets > 0
        assert bed.network.total_dropped_packets == 0

    def test_incast_scales_with_sender_count(self):
        def aggregate_for(count):
            bed = PolyraptorTestbed(seed=5)
            destination = bed.host_id("h0")
            names = [name for name in bed.network.host_names if name != "h0"][:count]
            for index, name in enumerate(names):
                bed.agents[name].start_push_session(
                    100 + index, 128 * KILOBYTE, [destination],
                    on_complete=bed.record(100 + index, 128 * KILOBYTE),
                )
            bed.run(until=10.0)
            records = [bed.registry.get(100 + i) for i in range(count)]
            total = sum(r.transfer_bytes for r in records)
            span = max(r.completion_time for r in records) - min(r.start_time for r in records)
            return total * 8 / span / 1e9

        few = aggregate_for(2)
        many = aggregate_for(10)
        # More senders must not collapse the aggregate goodput (the TCP
        # baseline collapses by an order of magnitude here).
        assert many > 0.5 * few


class TestPayloadMode:
    @pytest.fixture
    def payload_config(self):
        return PolyraptorConfig(carry_payload=True, symbol_size_bytes=512,
                                max_symbols_per_block=64)

    def test_unicast_push_delivers_exact_bytes(self, payload_config):
        bed = PolyraptorTestbed(config=payload_config)
        data = os.urandom(60_000)
        bed.agents["h0"].start_push_session(1, len(data), [bed.host_id("h9")],
                                            object_data=data)
        bed.run()
        receiver = bed.agents["h9"].receiver_session(1).core
        assert receiver.completed
        assert receiver.received_data == data

    def test_multicast_push_delivers_exact_bytes_to_all(self, payload_config):
        bed = PolyraptorTestbed(config=payload_config)
        data = os.urandom(40_000)
        receivers = ["h4", "h8"]
        bed.network.create_multicast_group(1, "h0", receivers)
        bed.agents["h0"].start_push_session(
            1, len(data), [bed.host_id(name) for name in receivers],
            multicast_group=1, object_data=data,
        )
        bed.run()
        for name in receivers:
            assert bed.agents[name].receiver_session(1).core.received_data == data

    def test_fetch_delivers_exact_bytes(self, payload_config):
        bed = PolyraptorTestbed(config=payload_config)
        data = os.urandom(50_000)
        senders = ["h4", "h12"]
        for name in senders:
            bed.agents[name].store_object(1, data)
        bed.agents["h0"].start_fetch_session(
            1, len(data), [bed.host_id(name) for name in senders]
        )
        bed.run()
        assert bed.agents["h0"].receiver_session(1).core.received_data == data

    def test_payload_mode_requires_object_data(self, payload_config):
        bed = PolyraptorTestbed(config=payload_config)
        with pytest.raises(ValueError):
            bed.agents["h0"].start_push_session(1, 1000, [bed.host_id("h2")])

    def test_payload_survives_congestion_induced_trimming(self, payload_config):
        bed = PolyraptorTestbed(config=payload_config, seed=4)
        destination = bed.host_id("h0")
        blobs = {}
        sender_names = ["h4", "h8", "h12", "h13"]
        for index, name in enumerate(sender_names):
            data = os.urandom(30_000)
            blobs[name] = data
            bed.agents[name].start_push_session(10 + index, len(data), [destination],
                                                object_data=data)
        bed.run(until=10.0)
        assert bed.network.total_trimmed_packets > 0
        for index, name in enumerate(sender_names):
            receiver = bed.agents["h0"].receiver_session(10 + index).core
            assert receiver.received_data == blobs[name]
