"""Tests for one-to-many (multicast) Polyraptor sessions."""

import pytest

from repro.core.config import PolyraptorConfig
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


class TestStragglerExtension:
    def test_straggler_detached_when_enabled(self):
        config = PolyraptorConfig(straggler_detection=True, straggler_lag_symbols=6)
        bed = PolyraptorTestbed(config=config)
        receivers = ["h4", "h8", "h12"]
        session = start_multicast(bed, 1, 600_000, receivers)
        # Make h4 a straggler by keeping its downlink busy with two other sessions.
        bed.agents["h5"].start_push_session(2, 600_000, [bed.host_id("h4")])
        bed.agents["h6"].start_push_session(3, 600_000, [bed.host_id("h4")])
        bed.run(until=10.0)
        assert session.core.completed
        assert session.core.detached_count >= 1

    def test_no_detachment_when_disabled(self):
        bed = PolyraptorTestbed()  # straggler_detection defaults to False
        receivers = ["h4", "h8", "h12"]
        session = start_multicast(bed, 1, 400_000, receivers)
        bed.agents["h5"].start_push_session(2, 400_000, [bed.host_id("h4")])
        bed.run()
        assert session.core.detached_count == 0

    def test_straggler_policy_never_detaches_everyone(self):
        from repro.protocol.straggler import StragglerPolicy

        policy = StragglerPolicy(enabled=True, lag_symbols=1)
        pulls = {1: 0, 2: 0, 3: 100}
        stragglers = policy.find_stragglers(pulls, {1, 2, 3})
        assert stragglers == {1, 2}

    def test_straggler_policy_disabled_returns_empty(self):
        from repro.protocol.straggler import StragglerPolicy

        policy = StragglerPolicy(enabled=False)
        assert policy.find_stragglers({1: 0, 2: 100}, {1, 2}) == set()

    def test_straggler_policy_single_receiver_returns_empty(self):
        from repro.protocol.straggler import StragglerPolicy

        policy = StragglerPolicy(enabled=True, lag_symbols=1)
        assert policy.find_stragglers({1: 0}, {1}) == set()
