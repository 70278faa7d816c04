"""The receiver's paced pull clock is Polyraptor's only rate control.

Every arriving symbol, full or trimmed, buys exactly one pull; a host's pull
queue spaces its pulls one symbol-serialisation time apart whatever those
pulls report; a sender pushes its initial window in one burst and answers
every later pull with one symbol.  No core takes a congestion signal (an ECN
mark, an RTT sample) as input, and no sender keeps a rate of its own.
"""

from __future__ import annotations

import dataclasses
import inspect
import math

import pytest

from repro.core.config import PolyraptorConfig
from repro.core.packets import PullPayload, SymbolPayload
from repro.protocol.actions import (
    KIND_DATA,
    EnqueuePull,
    SendPacket,
    SessionCompleted,
    SetTimer,
)
from repro.protocol.pacer import PacedPullQueue
from repro.protocol.receiver import ReceiverCore
from repro.protocol.sender import SenderCore
from repro.utils.units import serialization_delay

CONFIG = PolyraptorConfig()
BLOCK_SYMBOLS = 40
OBJECT_BYTES = CONFIG.symbol_size_bytes * BLOCK_SYMBOLS
SENDER = 0
RECEIVER = 2
ARRIVALS = pytest.mark.parametrize("trimmed", [False, True], ids=["full", "trimmed"])


def _receiver(config=CONFIG):
    core = ReceiverCore(config=config, session_id=7, object_bytes=OBJECT_BYTES,
                        local_host=RECEIVER, expected_senders=[SENDER])
    core.poll_actions()  # the construction-time stall arming
    return core


def _sender(config=CONFIG, **options):
    return SenderCore(config=config, session_id=7, object_bytes=OBJECT_BYTES,
                      receiver_host_ids=[RECEIVER], local_host=SENDER, **options)


def _symbol(esi, sequence=None):
    return SymbolPayload(session_id=7, sender_host=SENDER, block_number=0, esi=esi,
                         block_symbol_count=BLOCK_SYMBOLS, num_blocks=1,
                         object_bytes=OBJECT_BYTES, data=None,
                         sequence=esi + 1 if sequence is None else sequence)


def _pulls(actions):
    return [action for action in actions if isinstance(action, EnqueuePull)]


def _pull(sequence=1, loss_estimate=0.0):
    return PullPayload(session_id=7, receiver_host=RECEIVER, pull_sequence=sequence,
                       block_hint=0, loss_estimate=loss_estimate)


# Receiver ---------------------------------------------------------------------


@ARRIVALS
def test_each_arrival_buys_exactly_one_pull(trimmed):
    core = _receiver()
    for esi in range(5):
        core.on_symbol(_symbol(esi), trimmed=trimmed)
        assert _pulls(core.poll_actions()) == [EnqueuePull(7, SENDER)]


@ARRIVALS
def test_an_arrival_rearms_the_stall_timer_then_pulls(trimmed):
    """The whole reaction to a non-completing arrival: no feedback action,
    no rate sample, nothing but the stall re-arm and the one pull."""
    core = _receiver()
    core.on_symbol(_symbol(0), trimmed=trimmed)
    assert core.poll_actions() == [
        SetTimer(ReceiverCore.TIMER_STALL, CONFIG.stall_timeout_s),
        EnqueuePull(7, SENDER),
    ]


@pytest.mark.parametrize("signal", ["ce", "sent_at"])
def test_on_symbol_takes_no_congestion_input(signal):
    assert list(inspect.signature(ReceiverCore.on_symbol).parameters) == [
        "self", "payload", "trimmed", "multicast", "now",
    ]
    with pytest.raises(TypeError):
        _receiver().on_symbol(_symbol(0), trimmed=False, **{signal: 1})


def test_the_completing_arrival_pulls_no_more():
    core = _receiver()
    for esi in range(BLOCK_SYMBOLS - 1):
        core.on_symbol(_symbol(esi), trimmed=False)
    core.poll_actions()
    core.on_symbol(_symbol(BLOCK_SYMBOLS - 1), trimmed=False, now=1.0)
    actions = core.poll_actions()
    assert _pulls(actions) == []
    assert actions[-1] == SessionCompleted(7, 1.0)


@pytest.mark.parametrize("gap", [0, 1, 5, 40])
def test_pull_on_gap_replaces_each_vanished_arrival(gap):
    """On a wire with no trimming, a sequence gap stands in for the trimmed
    headers that never came: one extra pull per missing symbol, at most an
    initial window's worth."""
    core = _receiver(dataclasses.replace(CONFIG, pull_on_gap=True))
    core.on_symbol(_symbol(0, sequence=1), trimmed=False)
    core.poll_actions()
    core.on_symbol(_symbol(1, sequence=2 + gap), trimmed=False)
    expected = 1 + min(gap, CONFIG.initial_window_symbols)
    assert _pulls(core.poll_actions()) == [EnqueuePull(7, SENDER)] * expected


def test_a_gap_buys_no_extra_pull_on_a_trimming_fabric():
    core = _receiver()
    core.on_symbol(_symbol(0, sequence=1), trimmed=False)
    core.poll_actions()
    core.on_symbol(_symbol(1, sequence=10), trimmed=False)
    assert _pulls(core.poll_actions()) == [EnqueuePull(7, SENDER)]


# Sender -----------------------------------------------------------------------


@pytest.mark.parametrize("window", [1, 4, 18])
def test_start_sends_the_whole_window_in_one_burst(window):
    """The initial window leaves at once: every symbol in the one ``start``
    transition, and the only timer armed is the startup probe."""
    core = _sender(dataclasses.replace(CONFIG, initial_window_symbols=window))
    core.start(0.0)
    actions = core.poll_actions()
    sends = [action for action in actions if isinstance(action, SendPacket)]
    assert len(sends) == window
    assert all(send.kind == KIND_DATA and send.dest == RECEIVER for send in sends)
    assert actions[window:] == [SetTimer(SenderCore.TIMER_STARTUP, CONFIG.stall_timeout_s)]


@pytest.mark.parametrize("num_senders", [1, 2, 3, 5])
def test_the_window_is_split_across_replica_senders(num_senders):
    core = _sender(sender_index=0, num_senders=num_senders)
    core.start(0.0)
    sends = [a for a in core.poll_actions() if isinstance(a, SendPacket)]
    assert len(sends) == math.ceil(CONFIG.initial_window_symbols / num_senders)


def test_the_startup_probe_is_the_only_sender_timer():
    assert SenderCore.TIMERS == (SenderCore.TIMER_STARTUP,)


@pytest.mark.parametrize("loss_estimate", [0.0, 0.5])
def test_each_pull_is_answered_with_one_symbol(loss_estimate):
    core = _sender()
    core.start(0.0)
    core.poll_actions()
    for sequence in range(1, 4):
        core.on_pull(_pull(sequence, loss_estimate), now=1e-3 * sequence)
        sends = [a for a in core.poll_actions() if isinstance(a, SendPacket)]
        assert len(sends) == 1 and sends[0].dest == RECEIVER


def test_the_sender_keeps_no_rate_of_its_own():
    """The link rate a driver hands the sender changes none of its actions."""
    transcripts = []
    for rate in (1e6, 1e12):
        core = _sender(link_rate_bps=rate)
        core.start(0.0)
        core.on_pull(_pull(), now=1e-3)
        transcripts.append(core.poll_actions())
    assert transcripts[0] == transcripts[1]


# Pacer ------------------------------------------------------------------------


class _ManualClock:
    """Records every delay the pacer asks for; fires nothing by itself."""

    def __init__(self):
        self.delays = []
        self.pending = []

    def schedule(self, delay, callback):
        self.delays.append(delay)
        self.pending.append(callback)
        return self

    def cancel(self):
        pass

    def fire_all(self):
        while self.pending:
            self.pending.pop(0)()


def _pacer(link_rate_bps=1e10):
    clock = _ManualClock()
    sent = []
    pacer = PacedPullQueue(CONFIG, link_rate_bps, clock.schedule, sent.append)
    return pacer, clock, sent


@pytest.mark.parametrize("link_rate_bps", [1e9, 1e10, 4e10])
def test_the_pull_gap_is_one_symbol_serialisation_time(link_rate_bps):
    pacer, clock, sent = _pacer(link_rate_bps)
    for sequence in range(1, 5):
        pacer.enqueue(7, lambda sequence=sequence: _pull(sequence))
    clock.fire_all()
    assert len(sent) == 4
    interval = serialization_delay(CONFIG.symbol_packet_bytes, link_rate_bps)
    assert clock.delays == [interval] * 4


def test_the_pull_gap_ignores_what_the_pulls_report():
    """A pull echoing heavy path loss is paced exactly like a clean one."""
    gaps = []
    for loss_estimate in (0.0, 0.9):
        pacer, clock, _ = _pacer()
        for sequence in range(1, 4):
            pacer.enqueue(7, lambda s=sequence: _pull(s, loss_estimate))
        clock.fire_all()
        gaps.append(clock.delays)
    assert gaps[0] == gaps[1]


def test_a_declined_pull_still_spends_its_slot():
    pacer, clock, sent = _pacer()
    pacer.enqueue(7, lambda: None)
    pacer.enqueue(7, lambda: _pull())
    clock.fire_all()
    assert sent == [_pull()]
    assert (pacer.pulls_sent, pacer.pulls_discarded) == (1, 1)
    assert clock.delays == [pacer.pull_interval_s] * 2


def test_the_pacer_takes_no_rate_controller():
    assert list(inspect.signature(PacedPullQueue).parameters) == [
        "config", "link_rate_bps", "schedule", "send",
    ]


# Configuration ----------------------------------------------------------------


def test_polyraptor_config_has_ten_knobs():
    assert [field.name for field in dataclasses.fields(PolyraptorConfig)] == [
        "symbol_size_bytes", "initial_window_symbols", "max_symbols_per_block",
        "carry_payload", "stall_timeout_s", "startup_retry_limit",
        "straggler_detection", "straggler_lag_symbols", "gray_detection",
        "pull_on_gap",
    ]


def test_the_removed_pacing_knob_is_rejected():
    with pytest.raises(TypeError):
        PolyraptorConfig(tfrc_pacing=True)


def test_a_pull_carries_no_congestion_echo():
    assert [field.name for field in dataclasses.fields(PullPayload)] == [
        "session_id", "receiver_host", "pull_sequence", "block_hint", "loss_estimate",
    ]
