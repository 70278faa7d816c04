"""Tests for one-to-many (multicast) Polyraptor sessions."""

from repro.rq.block import partition_object
from tests.conftest import PolyraptorTestbed


def start_multicast(bed, session_id, object_bytes, receivers):
    bed.network.create_multicast_group(session_id, "h0", receivers)
    return bed.agents["h0"].start_push_session(
        session_id,
        object_bytes,
        [bed.host_id(name) for name in receivers],
        multicast_group=session_id,
        on_complete=bed.record(session_id, object_bytes),
    )


class TestMulticastPush:
    def test_all_receivers_decode_and_session_completes(self):
        bed = PolyraptorTestbed()
        receivers = ["h4", "h8", "h12"]
        session = start_multicast(bed, 1, 500_000, receivers)
        bed.run()
        assert session.core.completed
        assert bed.registry.get(1).completed
        for name in receivers:
            assert bed.agents[name].receiver_session(1).core.completed

    def test_sender_transmits_roughly_one_copy_not_n_copies(self):
        bed = PolyraptorTestbed()
        object_bytes = 500_000
        receivers = ["h4", "h8", "h12"]
        session = start_multicast(bed, 1, object_bytes, receivers)
        bed.run()
        config = bed.config
        source_symbols = partition_object(
            object_bytes, config.symbol_size_bytes, config.max_symbols_per_block
        ).total_source_symbols
        # The whole point of multicast replication: the sender emits ~K symbols
        # for 3 receivers, not 3K (multi-unicast would).  Allow generous slack
        # for pulls in flight when receivers complete.
        assert session.core.symbols_sent < 1.5 * source_symbols

    def test_group_completes_with_one_busy_receiver(self):
        """Pull aggregation waits for the slowest member and never drops it."""
        bed = PolyraptorTestbed()
        receivers = ["h4", "h8", "h12"]
        session = start_multicast(bed, 1, 400_000, receivers)
        bed.agents["h5"].start_push_session(2, 400_000, [bed.host_id("h4")])
        bed.run()
        assert session.core.completed
        for name in receivers:
            assert bed.agents[name].receiver_session(1).core.completed

    def test_multicast_goodput_close_to_unicast(self):
        unicast = PolyraptorTestbed(seed=3)
        unicast.agents["h0"].start_push_session(1, 400_000, [unicast.host_id("h12")],
                                                on_complete=unicast.record(1, 400_000))
        unicast.run()
        multicast = PolyraptorTestbed(seed=3)
        start_multicast(multicast, 1, 400_000, ["h4", "h8", "h12"])
        multicast.run()
        single = unicast.registry.get(1).goodput_gbps
        triple = multicast.registry.get(1).goodput_gbps
        # On an idle fabric, replicating to three receivers costs almost nothing.
        assert triple > 0.8 * single

    def test_aggregation_paces_at_slowest_receiver(self):
        bed = PolyraptorTestbed()
        receivers = ["h4", "h8", "h12"]
        start_multicast(bed, 1, 400_000, receivers)
        # Load one receiver with an extra unicast session so it pulls slower.
        bed.agents["h5"].start_push_session(2, 400_000, [bed.host_id("h4")],
                                            on_complete=bed.record(2, 400_000))
        bed.run()
        assert bed.registry.get(1).completed
        assert bed.registry.get(2).completed
        # The multicast session cannot be faster than the busy receiver allows.
        assert bed.registry.get(1).goodput_gbps <= bed.registry.get(2).goodput_gbps * 1.5

    def test_single_receiver_group_behaves_like_unicast(self):
        bed = PolyraptorTestbed()
        session = start_multicast(bed, 1, 200_000, ["h9"])
        bed.run()
        assert session.core.completed
        assert bed.registry.get(1).goodput_gbps > 0.5

    def test_completion_only_after_last_receiver(self):
        bed = PolyraptorTestbed()
        receivers = ["h4", "h8", "h12"]
        session = start_multicast(bed, 1, 300_000, receivers)
        bed.run()
        receiver_times = [
            bed.agents[name].receiver_session(1).core.completion_time for name in receivers
        ]
        assert session.core.completion_time >= max(receiver_times)
