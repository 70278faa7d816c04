"""The receiver's paced pull clock is Polyraptor's only rate control.

Every arriving symbol, full or trimmed, buys exactly one pull; a host's pull
queue spaces its pulls one symbol-serialisation time apart whatever those
pulls report; a sender pushes its initial window in one burst and answers
every later pull with one symbol -- a multicast sender one group symbol per
full round of its unfinished members' pulls.  No core takes a congestion
signal (an ECN mark, an RTT sample) as input, and no sender keeps a rate of
its own.
"""

from __future__ import annotations

import dataclasses
import inspect
import math

import pytest

from repro.core.config import STARTUP_RETRY_LIMIT, PolyraptorConfig
from repro.core.packets import DonePayload, PullPayload, SymbolPayload
from repro.experiments.config import ExperimentConfig
from repro.network.network import NetworkConfig
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
from repro.sim.engine import Simulator
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


def _pull(sequence=1, block_hint=0):
    return PullPayload(session_id=7, receiver_host=RECEIVER, pull_sequence=sequence,
                       block_hint=block_hint)


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


UNICAST, MULTICAST = False, True


@pytest.mark.parametrize("arrivals, extra", [
    *[([(1, UNICAST), (2 + gap, UNICAST)], min(gap, CONFIG.initial_window_symbols))
      for gap in (0, 1, 5, 40)],
    ([(5, UNICAST)], 0),
    ([(1, UNICAST), (3, UNICAST), (2, UNICAST)], 0),
    ([(1, MULTICAST), (5, UNICAST)], 0),
    ([(5, UNICAST), (1, MULTICAST), (3, MULTICAST)], 1),
], ids=["0", "1", "5", "40", "first-contact", "late-arrival",
        "streams-apart", "multicast-gap-after-unicast"])
def test_pull_on_gap_replaces_each_vanished_arrival(arrivals, extra):
    """On a wire with no trimming, a sequence gap stands in for the trimmed
    headers that never came: the last of ``arrivals`` buys one extra pull per
    symbol it newly exposes as missing, at most an initial window's worth.
    First contact and a late (reordered) arrival expose none, and a sender's
    multicast and unicast streams are counted apart."""
    core = _receiver(dataclasses.replace(CONFIG, pull_on_gap=True))
    for esi, (sequence, multicast) in enumerate(arrivals):
        core.poll_actions()
        core.on_symbol(_symbol(esi, sequence=sequence), trimmed=False, multicast=multicast)
    assert _pulls(core.poll_actions()) == [EnqueuePull(7, SENDER)] * (1 + extra)


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


@pytest.mark.parametrize("block_hint", [0, None])
def test_each_pull_is_answered_with_one_symbol(block_hint):
    core = _sender()
    core.start(0.0)
    core.poll_actions()
    for sequence in range(1, 4):
        core.on_pull(_pull(sequence, block_hint), now=1e-3 * sequence)
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


def _timers(actions):
    return [action for action in actions if isinstance(action, SetTimer)]


def test_startup_probes_back_off_exponentially_up_to_the_retry_limit():
    """A receiver never heard from is re-probed after the stall timeout,
    then after twice and four times as long, and so on; the last probe
    (number ``STARTUP_RETRY_LIMIT``) arms nothing further."""
    core = _sender()
    core.start(0.0)
    delays = [timer.delay_s for timer in _timers(core.poll_actions())]
    for _ in range(STARTUP_RETRY_LIMIT):
        core.on_timer(SenderCore.TIMER_STARTUP, now=0.0)
        delays += [timer.delay_s for timer in _timers(core.poll_actions())]
    assert delays == [CONFIG.stall_timeout_s * 2 ** retry
                      for retry in range(STARTUP_RETRY_LIMIT)]
    assert core.startup_retries == STARTUP_RETRY_LIMIT


def test_each_startup_probe_is_one_unicast_symbol():
    core = _sender()
    core.start(0.0)
    core.poll_actions()
    core.on_timer(SenderCore.TIMER_STARTUP, now=0.0)
    sends = [a for a in core.poll_actions() if isinstance(a, SendPacket)]
    assert len(sends) == 1
    assert sends[0].dest == RECEIVER and sends[0].multicast_group is None


MEMBERS = [2, 3, 4]
GROUP = 9


def _multicast_sender():
    core = SenderCore(config=CONFIG, session_id=7, object_bytes=OBJECT_BYTES,
                      receiver_host_ids=MEMBERS, local_host=SENDER,
                      multicast_group=GROUP)
    core.start(0.0)
    core.poll_actions()
    return core


def _member_pull(receiver, sequence=1):
    return PullPayload(session_id=7, receiver_host=receiver, pull_sequence=sequence,
                       block_hint=0)


def _group_sends(core):
    return [action for action in core.poll_actions()
            if isinstance(action, SendPacket) and action.multicast_group == GROUP]


def test_startup_probes_only_the_members_not_yet_heard_from():
    core = _multicast_sender()
    core.on_pull(_member_pull(MEMBERS[0]), now=1e-3)
    core.poll_actions()
    core.on_timer(SenderCore.TIMER_STARTUP, now=1e-3)
    sends = [a for a in core.poll_actions() if isinstance(a, SendPacket)]
    assert [send.dest for send in sends] == MEMBERS[1:]
    assert all(send.multicast_group is None for send in sends)


def test_a_multicast_round_waits_for_a_pull_from_every_member():
    core = _multicast_sender()
    for receiver in MEMBERS[:-1]:
        core.on_pull(_member_pull(receiver), now=1e-3)
        assert _group_sends(core) == []
    core.on_pull(_member_pull(MEMBERS[-1]), now=1e-3)
    assert len(_group_sends(core)) == 1
    assert core.multicast_rounds == 1


def test_pull_credits_carry_over_to_later_rounds():
    """A member that pulls ahead banks its pulls; each later full round of
    pulls from the others releases one more group symbol."""
    core = _multicast_sender()
    for sequence in range(1, 4):
        core.on_pull(_member_pull(MEMBERS[0], sequence), now=1e-3)
    assert _group_sends(core) == []
    for sequence in range(1, 4):
        for receiver in MEMBERS[1:]:
            core.on_pull(_member_pull(receiver, sequence), now=1e-3)
        assert len(_group_sends(core)) == 1
    assert core.multicast_rounds == 3


def test_a_finished_member_stops_holding_back_the_round():
    core = _multicast_sender()
    for receiver in MEMBERS[:-1]:
        core.on_pull(_member_pull(receiver), now=1e-3)
    assert _group_sends(core) == []
    core.on_done(DonePayload(session_id=7, receiver_host=MEMBERS[-1]), now=1e-3)
    assert len(_group_sends(core)) == 1
    assert not core.completed


def test_a_finished_members_pulls_buy_no_round():
    core = _multicast_sender()
    finished = MEMBERS[-1]
    core.on_done(DonePayload(session_id=7, receiver_host=finished), now=1e-3)
    core.poll_actions()
    for sequence in range(1, 4):
        core.on_pull(_member_pull(finished, sequence), now=1e-3)
    assert _group_sends(core) == []
    for receiver in MEMBERS[:-1]:
        core.on_pull(_member_pull(receiver), now=1e-3)
    assert len(_group_sends(core)) == 1


# Pacer ------------------------------------------------------------------------


class _ManualClock:
    """Records every delay the pacer asks for; fires nothing by itself.

    ``fire`` runs the oldest pending callback with ``now`` at the time it was
    scheduled for, plus ``late`` seconds (an event loop that woke up late).
    """

    def __init__(self):
        self.now = 0.0
        self.delays = []
        self.pending = []

    def schedule(self, delay, callback):
        self.delays.append(delay)
        self.pending.append((self.now + delay, callback))
        return self

    def cancel(self):
        pass

    def fire(self, late=0.0):
        when, callback = self.pending.pop(0)
        self.now = when + late
        callback()

    def fire_all(self):
        while self.pending:
            self.fire()


def _pacer(link_rate_bps=1e10):
    clock = _ManualClock()
    sent = []
    pacer = PacedPullQueue(CONFIG, link_rate_bps, clock, sent.append)
    return pacer, clock, sent


def _enqueue(pacer, count):
    for sequence in range(1, count + 1):
        pacer.enqueue(7, lambda sequence=sequence: _pull(sequence))


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
    """A pull naming no block is paced exactly like one with a hint."""
    gaps = []
    for block_hint in (0, None):
        pacer, clock, _ = _pacer()
        for sequence in range(1, 4):
            pacer.enqueue(7, lambda s=sequence: _pull(s, block_hint))
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
        "config", "link_rate_bps", "clock", "send",
    ]


def test_a_late_tick_catches_up_on_the_slots_it_missed():
    pacer, clock, sent = _pacer()
    _enqueue(pacer, 10)
    assert len(sent) == 1
    clock.fire(late=3.5 * pacer.pull_interval_s)
    assert len(sent) == 1 + 4
    assert [pull.pull_sequence for pull in sent] == [1, 2, 3, 4, 5]
    # The next slot opens one interval after the late tick, not sooner.
    assert clock.delays == [pacer.pull_interval_s] * 2
    assert clock.pending[0][0] == clock.now + pacer.pull_interval_s


def test_a_catch_up_burst_is_at_most_an_initial_window():
    pacer, clock, sent = _pacer()
    _enqueue(pacer, 100)
    clock.fire(late=1000 * pacer.pull_interval_s)
    assert len(sent) == 1 + CONFIG.initial_window_symbols


def test_an_idle_period_earns_no_credit():
    pacer, clock, sent = _pacer()
    _enqueue(pacer, 1)
    clock.fire_all()  # the queue is empty at this tick: the pacer goes idle
    assert clock.pending == []
    clock.now = 1.0
    _enqueue(pacer, 5)
    assert len(sent) == 2  # the first pull of the busy period goes at once
    clock.fire()  # the next one goes one interval later, alone
    assert len(sent) == 3
    assert clock.now == 1.0 + pacer.pull_interval_s


def test_on_the_simulator_every_tick_sends_one_pull():
    """The engine fires a tick at exactly the time it stored, so the sim's
    pull train is one pull per interval, as before catch-up existed."""
    sim = Simulator()
    times = []
    pacer = PacedPullQueue(CONFIG, 1e10, sim, lambda _pull: times.append(sim.now))
    _enqueue(pacer, 50)
    sim.run()
    assert len(times) == 50
    assert len(set(times)) == 50
    assert times == sorted(times)


# Configuration ----------------------------------------------------------------


def test_polyraptor_config_has_six_knobs():
    assert [field.name for field in dataclasses.fields(PolyraptorConfig)] == [
        "symbol_size_bytes", "initial_window_symbols", "max_symbols_per_block",
        "carry_payload", "stall_timeout_s", "pull_on_gap",
    ]


def test_the_removed_pacing_knob_is_rejected():
    with pytest.raises(TypeError):
        PolyraptorConfig(tfrc_pacing=True)


REMOVED_KNOBS = [
    (PolyraptorConfig, "straggler_detection"),
    (PolyraptorConfig, "straggler_lag_symbols"),
    (PolyraptorConfig, "startup_retry_limit"),
    (NetworkConfig, "convergence_jitter"),
    (NetworkConfig, "data_queue_capacity_packets"),
    (ExperimentConfig, "convergence_jitter"),
]


@pytest.mark.parametrize("config_class, knob", REMOVED_KNOBS,
                         ids=[f"{cls.__name__}.{knob}" for cls, knob in REMOVED_KNOBS])
def test_the_removed_test_only_knobs_are_rejected(config_class, knob):
    with pytest.raises(TypeError):
        config_class(**{knob: 1})


def test_a_pull_carries_no_congestion_echo():
    assert [field.name for field in dataclasses.fields(PullPayload)] == [
        "session_id", "receiver_host", "pull_sequence", "block_hint",
    ]
