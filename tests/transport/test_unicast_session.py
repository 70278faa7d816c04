"""Tests for one-to-one Polyraptor sessions (push)."""

import pytest

from repro.core.config import DONE_RETRY_LIMIT, PolyraptorConfig
from tests.conftest import PolyraptorTestbed


class TestUnicastPush:
    def test_session_completes_and_reaches_near_line_rate(self):
        bed = PolyraptorTestbed()
        bed.agents["h0"].start_push_session(1, 1_000_000, [bed.host_id("h12")],
                                            on_complete=bed.record(1, 1_000_000))
        bed.run()
        record = bed.registry.get(1)
        assert record.completed
        assert record.goodput_gbps > 0.8

    def test_sender_sends_initial_window_then_pull_clocked(self):
        bed = PolyraptorTestbed()
        session = bed.agents["h0"].start_push_session(1, 500_000, [bed.host_id("h12")])
        bed.run()
        config = bed.config
        receiver = bed.agents["h12"].receiver_session(1).core
        # Every symbol beyond the initial window was triggered by a pull.
        assert session.core.symbols_sent >= receiver.symbols_received
        assert session.core.pulls_received >= session.core.symbols_sent - config.initial_window_symbols

    def test_source_symbols_sent_before_repair(self):
        bed = PolyraptorTestbed()
        session = bed.agents["h0"].start_push_session(1, 200_000, [bed.host_id("h9")])
        bed.run()
        # On an idle network nothing is lost, so no repair symbols are needed
        # beyond (at most) a handful triggered by in-flight pulls at the end.
        assert session.core.source_symbols_sent >= session.core.repair_symbols_sent
        assert session.core.source_symbols_sent > 0

    def test_receiver_counts_match_object_size(self):
        bed = PolyraptorTestbed()
        object_bytes = 300_000
        bed.agents["h0"].start_push_session(1, object_bytes, [bed.host_id("h5")])
        bed.run()
        receiver = bed.agents["h5"].receiver_session(1).core
        assert receiver.completed
        needed_symbols = receiver.oti.total_source_symbols
        assert receiver.symbols_received >= needed_symbols

    def test_done_stops_the_sender(self):
        bed = PolyraptorTestbed()
        session = bed.agents["h0"].start_push_session(1, 100_000, [bed.host_id("h3")])
        bed.run()
        assert session.core.completed
        sent_at_completion = session.core.symbols_sent
        bed.run(until=bed.sim.now + 0.01)
        assert session.core.symbols_sent == sent_at_completion

    def test_healthy_session_never_retries_done(self):
        """The sender's DONE-ACK arrives well before the first retry fires."""
        bed = PolyraptorTestbed()
        bed.agents["h0"].start_push_session(1, 100_000, [bed.host_id("h3")])
        bed.run()
        receiver = bed.agents["h3"].receiver_session(1).core
        assert receiver.completed
        assert receiver.done_retries == 0
        assert not bed.agents["h3"].receiver_session(1).timers["done"].running

    def test_small_object_single_window(self):
        bed = PolyraptorTestbed()
        bed.agents["h0"].start_push_session(1, 5_000, [bed.host_id("h2")],
                                            on_complete=bed.record(1, 5_000))
        bed.run()
        assert bed.registry.get(1).completed

    def test_lost_done_is_retransmitted_until_sender_completes(self):
        """DONE is unacknowledged: if the fabric eats it (e.g. a fault-downed
        link), the receiver's capped-backoff retries must still complete the
        sender, instead of it waiting pull-clocked forever."""
        bed = PolyraptorTestbed()
        rack = bed.topology.host_rack("h3")
        # Kill only the receiver->rack direction: symbols still arrive, but
        # everything the receiver sends (its DONE included) is dropped.  The
        # object fits in the initial window, so no pulls are needed to decode.
        reverse_wire = bed.network.link_between("h3", rack)
        reverse_wire.set_state(False)
        heal_at = 6 * bed.config.stall_timeout_s
        bed.sim.schedule(heal_at, reverse_wire.set_state, True)

        session = bed.agents["h0"].start_push_session(1, 5_000, [bed.host_id("h3")],
                                                      on_complete=bed.record(1, 5_000))
        bed.run()

        receiver = bed.agents["h3"].receiver_session(1).core
        assert receiver.completed
        assert receiver.completion_time < heal_at  # decoded while DONE path was dead
        assert receiver.done_retries >= 1          # at least one DONE was re-sent
        assert session.core.completed              # ... and a retry got through
        assert bed.registry.get(1).completed
        assert receiver.done_retries <= DONE_RETRY_LIMIT
        # the sender's ack stopped the retries
        assert not bed.agents["h3"].receiver_session(1).timers["done"].running

    def test_duplicate_session_id_rejected(self):
        bed = PolyraptorTestbed()
        bed.agents["h0"].start_push_session(1, 10_000, [bed.host_id("h2")])
        with pytest.raises(ValueError):
            bed.agents["h0"].start_push_session(1, 10_000, [bed.host_id("h3")])

    def test_multiple_concurrent_sessions_to_one_receiver_share_fairly(self):
        bed = PolyraptorTestbed()
        destination = bed.host_id("h0")
        for index, name in enumerate(["h4", "h8", "h12"]):
            bed.agents[name].start_push_session(
                10 + index, 400_000, [destination],
                on_complete=bed.record(10 + index, 400_000, label="share"),
            )
        bed.run()
        goodputs = bed.registry.goodputs_gbps("share")
        assert len(goodputs) == 3
        # The receiver's pull pacer shares its link roughly evenly.
        assert max(goodputs) / min(goodputs) < 2.0
        assert sum(goodputs) < 1.05  # cannot exceed the receiver link

    def test_no_data_packets_dropped_with_trimming_switches(self):
        bed = PolyraptorTestbed()
        destination = bed.host_id("h0")
        for index, name in enumerate(["h4", "h8", "h12", "h13"]):
            bed.agents[name].start_push_session(20 + index, 200_000, [destination],
                                                on_complete=bed.record(20 + index, 200_000))
        bed.run()
        assert bed.network.total_dropped_packets == 0
        assert bed.registry.completion_fraction() == 1.0


class TestReceiverSessionInternals:
    def test_lowest_incomplete_block_progression(self):
        bed = PolyraptorTestbed(config=PolyraptorConfig(max_symbols_per_block=8))
        bed.agents["h0"].start_push_session(1, 100_000, [bed.host_id("h3")])
        bed.run()
        receiver = bed.agents["h3"].receiver_session(1).core
        assert receiver.completed
        assert receiver.lowest_incomplete_block() is None
        assert receiver.oti.num_source_blocks > 1

    def test_stall_timer_recovers_from_total_initial_loss(self):
        # Even if every initial-window symbol were lost, the stall timer keeps
        # the session alive; here we simply verify sessions complete with a
        # very small stall timeout (more stall events, same outcome).
        config = PolyraptorConfig(stall_timeout_s=50e-6)
        bed = PolyraptorTestbed(config=config)
        bed.agents["h0"].start_push_session(1, 200_000, [bed.host_id("h12")],
                                            on_complete=bed.record(1, 200_000))
        bed.run()
        assert bed.registry.get(1).completed
