"""Tests for many-to-one (multi-source fetch) Polyraptor sessions."""

import pytest

from repro.core.config import PolyraptorConfig
from tests.conftest import PolyraptorTestbed


class TestMultiSourceFetch:
    def test_fetch_completes_from_three_senders(self):
        bed = PolyraptorTestbed()
        senders = ["h4", "h8", "h12"]
        bed.agents["h0"].start_fetch_session(
            1, 500_000, [bed.host_id(name) for name in senders], label="fetch"
        )
        bed.run()
        record = bed.registry.get(1)
        assert record.completed
        assert record.goodput_gbps > 0.5

    def test_no_duplicate_symbols_across_senders(self):
        bed = PolyraptorTestbed()
        senders = ["h4", "h8", "h12"]
        bed.agents["h0"].start_fetch_session(
            1, 500_000, [bed.host_id(name) for name in senders]
        )
        bed.run()
        receiver = bed.agents["h0"].receiver_session(1).core
        assert receiver.completed
        # Senders partition the symbol space, so the receiver should see
        # essentially no duplicates (a handful can arrive after a block
        # completes, but never because two senders emitted the same ESI).
        assert receiver.duplicate_symbols <= receiver.symbols_received * 0.1

    def test_all_senders_contribute(self):
        bed = PolyraptorTestbed()
        senders = ["h4", "h8", "h12"]
        bed.agents["h0"].start_fetch_session(
            1, 600_000, [bed.host_id(name) for name in senders]
        )
        bed.run()
        contributions = [
            bed.agents[name].sender_session(1).core.symbols_sent for name in senders
        ]
        assert all(count > 0 for count in contributions)
        # Natural load balancing on an idle fabric: contributions are similar.
        assert max(contributions) < 3 * min(contributions)

    def test_senders_partition_source_symbols(self):
        bed = PolyraptorTestbed()
        senders = ["h4", "h8"]
        bed.agents["h0"].start_fetch_session(
            1, 300_000, [bed.host_id(name) for name in senders]
        )
        bed.run()
        sessions = [bed.agents[name].sender_session(1).core for name in senders]
        assert all(session.sender_index == index for index, session in enumerate(sessions))
        assert all(session.num_senders == 2 for session in sessions)

    def test_single_sender_fetch_is_unicast_specialisation(self):
        bed = PolyraptorTestbed()
        bed.agents["h0"].start_fetch_session(1, 300_000, [bed.host_id("h12")])
        bed.run()
        assert bed.registry.get(1).completed

    def test_fetch_from_three_not_slower_than_from_one(self):
        single = PolyraptorTestbed(seed=7)
        single.agents["h0"].start_fetch_session(1, 500_000, [single.host_id("h12")],
                                                label="fetch")
        single.run()
        triple = PolyraptorTestbed(seed=7)
        triple.agents["h0"].start_fetch_session(
            1, 500_000, [triple.host_id(name) for name in ("h4", "h8", "h12")], label="fetch"
        )
        triple.run()
        assert (triple.registry.get(1).goodput_gbps
                >= 0.9 * single.registry.get(1).goodput_gbps)

    def test_fetch_session_requires_senders(self):
        bed = PolyraptorTestbed()
        with pytest.raises(ValueError):
            bed.agents["h0"].start_fetch_session(1, 1000, [])

    def test_load_balancing_favours_less_loaded_sender(self):
        bed = PolyraptorTestbed()
        senders = ["h4", "h12"]
        # h4 is simultaneously pushing another session, so it has less spare
        # uplink capacity than h12.
        bed.agents["h4"].start_push_session(2, 800_000, [bed.host_id("h9")], label="cross")
        bed.agents["h0"].start_fetch_session(
            1, 800_000, [bed.host_id(name) for name in senders], label="fetch"
        )
        bed.run()
        busy = bed.agents["h4"].sender_session(1).core.symbols_sent
        idle = bed.agents["h12"].sender_session(1).core.symbols_sent
        assert idle >= busy
