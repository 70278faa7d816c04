"""Tests for the shared per-host pull pacer."""

import pytest

from repro.core.config import HEADER_BYTES, PolyraptorConfig
from repro.core.packets import PullPayload
from repro.protocol.actions import KIND_CONTROL, SendPacket
from tests.conftest import PolyraptorTestbed


def make_pacer():
    """The pacer a host's agent owns, sending through the agent's NIC binding."""
    bed = PolyraptorTestbed()
    host = bed.network.host("h0")
    return bed, host, bed.agents["h0"].pacer


def pull_builder(host, sent_log, tag):
    def build():
        sent_log.append((host.sim.now, tag))
        # Host 1 runs no sender for this session and ignores the pull: these
        # synthetic pulls only observe the pacer's send timing.
        pull = PullPayload(session_id=424242, receiver_host=host.node_id, pull_sequence=0)
        return SendPacket(payload=pull, kind=KIND_CONTROL,
                          size_bytes=HEADER_BYTES, dest=1)
    return build


class TestPacing:
    def test_interval_matches_symbol_serialisation_time(self):
        _, host, pacer = make_pacer()
        config = PolyraptorConfig()
        expected = config.symbol_packet_bytes * 8 / host.link_rate_bps
        assert pacer.pull_interval_s == pytest.approx(expected)

    def test_first_pull_sent_immediately(self):
        bed, host, pacer = make_pacer()
        sent = []
        pacer.enqueue(1, pull_builder(host, sent, "a"))
        assert sent and sent[0][0] == 0.0

    def test_subsequent_pulls_are_paced(self):
        bed, host, pacer = make_pacer()
        sent = []
        for index in range(4):
            pacer.enqueue(1, pull_builder(host, sent, index))
        bed.run(until=0.01)
        times = [t for t, _ in sent]
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(gap == pytest.approx(pacer.pull_interval_s) for gap in gaps)

    def test_aggregate_rate_capped_across_sessions(self):
        bed, host, pacer = make_pacer()
        sent = []
        for session in (1, 2, 3):
            for index in range(5):
                pacer.enqueue(session, pull_builder(host, sent, (session, index)))
        bed.run(until=0.01)
        times = sorted(t for t, _ in sent)
        gaps = [b - a for a, b in zip(times, times[1:])]
        # Regardless of how many sessions are pulling, pulls leave at most one
        # per symbol-serialisation interval.
        assert min(gaps) >= pacer.pull_interval_s * 0.999

    def test_round_robin_across_sessions(self):
        bed, host, pacer = make_pacer()
        sent = []
        for session in (1, 2):
            for index in range(3):
                pacer.enqueue(session, pull_builder(host, sent, session))
        bed.run(until=0.01)
        order = [tag for _, tag in sent]
        # Sessions are interleaved rather than session 1 being drained first
        # (the first pull goes out immediately, before session 2 has queued).
        assert len(order) == 6
        assert set(order[:4]) == {1, 2}
        assert order != [1, 1, 1, 2, 2, 2]

    def test_counts(self):
        bed, host, pacer = make_pacer()
        sent = []
        pacer.enqueue(1, pull_builder(host, sent, "x"))
        bed.run(until=0.01)
        assert pacer.pulls_sent == 1
        assert pacer.pending_pulls == 0


class TestCancellation:
    def test_cancel_session_discards_pending(self):
        bed, host, pacer = make_pacer()
        sent = []
        for index in range(5):
            pacer.enqueue(1, pull_builder(host, sent, index))
        pacer.cancel_session(1)
        bed.run(until=0.01)
        # The first pull went out immediately; the rest were discarded.
        assert len(sent) == 1
        assert pacer.pulls_discarded >= 4

    def test_builder_returning_none_counts_as_discarded(self):
        bed, host, pacer = make_pacer()
        pacer.enqueue(1, lambda: None)
        bed.run(until=0.01)
        assert pacer.pulls_sent == 0
        assert pacer.pulls_discarded == 1

    def test_pending_for_session(self):
        bed, host, pacer = make_pacer()
        sent = []
        for index in range(3):
            pacer.enqueue(7, pull_builder(host, sent, index))
        # One was sent immediately; two remain queued.
        assert pacer.pending_for_session(7) == 2
        assert pacer.pending_for_session(99) == 0
