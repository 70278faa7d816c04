"""Sim/wire conformance harness: two bindings, one clock.

One scripted trace -- a timed sequence of protocol inputs for a single
session -- is replayed twice, each time on a fresh
:class:`~repro.sim.engine.Simulator`:

* through the **sim binding** (:meth:`repro.transport.polyraptor.PolyraptorAgent.drive`
  with a stub host), and
* through the **net binding** (:func:`repro.net.driver.drive`), with every
  outgoing payload round-tripped through the wire codec on the way out.

Both sides run the same cores under the same
:class:`~repro.protocol.driver.SessionDriver` with the same
:class:`~repro.utils.clock.Timer`; what differs is only what each binding
injects (packet framing, pacer ownership, the wire codec).

Both replays reduce to the same normalized decision list -- ``(time, kind,
destination, payload)`` for every transmitted packet plus a completion
marker -- and the suite asserts the lists are **identical**.  Any drift
between the two transports' view of the protocol (timer arithmetic, pacing
order, pull bookkeeping, wire codec lossiness) shows up as a diff.

Both sides are driven the same way: advance the clock exactly to the
event's timestamp with ``Simulator.run(until=t)`` -- which lands the clock on
``t`` and breaks same-instant ties by scheduling order -- then invoke the
handler directly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.core.config import PolyraptorConfig
from repro.core.packets import DoneAckPayload, DonePayload, PullPayload, SymbolPayload
from repro.net.driver import drive
from repro.net.wire import decode_frame, encode_frame
from repro.protocol.actions import SendPacket
from repro.protocol.receiver import ReceiverCore
from repro.protocol.sender import SenderCore
from repro.sim.engine import Simulator
from repro.transport.polyraptor import PolyraptorAgent

#: Directory holding the scripted trace corpus.
TRACES_DIR = Path(__file__).parent / "traces"

#: Both replays assume the same link rate, so pull-pacing intervals match
#: to the bit.
LINK_RATE_BPS = 1e9

#: The node id of the session's host on both transports.
LOCAL_HOST_ID = 1

Decision = tuple


class StubHost:
    """The minimal host surface the sim-side agent needs.

    ``send`` records the packet as a normalized decision instead of
    entering a NIC queue: conformance compares what the protocol *decided*
    to transmit, not how a particular fabric treats it afterwards.
    """

    def __init__(self, sim: Simulator, sink: list) -> None:
        self._sim = sim
        self._sink = sink
        self.node_id = LOCAL_HOST_ID
        self.link_rate_bps = LINK_RATE_BPS
        self.name = "conformance-host"

    def register_protocol(self, protocol: str, agent: Any) -> None:
        pass

    def send(self, packet: Any) -> bool:
        dest: Any = packet.dst
        if packet.multicast_group is not None:
            dest = ("group", packet.multicast_group)
        self._sink.append(
            ("packet", repr(self._sim.now), packet.kind.value, dest, repr(packet.payload))
        )
        return True


def load_trace(path: Path) -> dict:
    """Load one trace file."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def trace_paths() -> list[Path]:
    """All trace files in the corpus, sorted by name."""
    return sorted(TRACES_DIR.glob("*.json"))


def _config(trace: dict) -> PolyraptorConfig:
    return PolyraptorConfig(**trace.get("config", {}))


def _event_payload(trace: dict, event: dict):
    """Build the protocol payload a trace event injects."""
    session_id = trace["session"]["session_id"]
    kind = event["type"]
    if kind == "symbol":
        return SymbolPayload(
            session_id=session_id,
            sender_host=event["sender_host"],
            block_number=event["block_number"],
            esi=event["esi"],
            block_symbol_count=event["block_symbol_count"],
            num_blocks=event["num_blocks"],
            object_bytes=trace["session"]["object_bytes"],
            data=None,
            sequence=event["sequence"],
        )
    if kind == "pull":
        return PullPayload(
            session_id=session_id,
            receiver_host=event["receiver_host"],
            pull_sequence=event["pull_sequence"],
            block_hint=event.get("block_hint"),
        )
    if kind == "done":
        return DonePayload(session_id=session_id, receiver_host=event["receiver_host"])
    if kind == "done_ack":
        return DoneAckPayload(session_id=session_id, sender_host=event["sender_host"])
    return None


def _inject(trace: dict, event: dict, session: Any) -> None:
    """Apply one trace event to a driver (sim or net -- same surface)."""
    kind = event["type"]
    payload = _event_payload(trace, event)
    if kind == "start":
        session.start()
    elif kind == "start_fetch":
        session.start_fetch()
    elif kind == "symbol":
        session.on_symbol(
            payload,
            trimmed=event.get("trimmed", False),
            multicast=event.get("multicast", False),
        )
    elif kind == "pull":
        session.on_pull(payload)
    elif kind == "done":
        session.on_done(payload)
    elif kind == "done_ack":
        session.on_done_ack(payload)
    else:
        raise ValueError(f"unknown trace event type {kind!r}")


def _build_core(trace: dict, config: PolyraptorConfig, now: float):
    """The trace's protocol core -- the same construction on both clocks."""
    spec = trace["session"]
    if trace["kind"] == "receiver":
        return ReceiverCore(
            config=config,
            session_id=spec["session_id"],
            object_bytes=spec["object_bytes"],
            local_host=LOCAL_HOST_ID,
            expected_senders=spec.get("expected_senders"),
            now=now,
        )
    return SenderCore(
        config=config,
        session_id=spec["session_id"],
        object_bytes=spec["object_bytes"],
        receiver_host_ids=spec["receiver_host_ids"],
        local_host=LOCAL_HOST_ID,
        multicast_group=spec.get("multicast_group"),
        sender_index=spec.get("sender_index", 0),
        num_senders=spec.get("num_senders", 1),
    )


def run_sim_trace(trace: dict) -> list[Decision]:
    """Replay a trace through the sim binding; return its decisions."""
    sim = Simulator()
    sink: list[Decision] = []
    host = StubHost(sim, sink)
    agent = PolyraptorAgent(sim, host, _config(trace))
    session = agent.drive(
        _build_core(trace, agent.config, sim.now),
        on_complete=lambda t: sink.append(("complete", repr(t))),
    )
    for event in trace["events"]:
        sim.run(until=event["t"])
        _inject(trace, event, session)
    sim.run(until=trace["horizon"])
    return sink


def run_net_trace(trace: dict) -> list[Decision]:
    """Replay a trace through the net binding; return its decisions.

    Every outgoing payload is round-tripped through
    :func:`~repro.net.wire.encode_frame` / ``decode_frame`` first, so a
    lossy codec (a field dropped, truncated or re-quantised on the wire)
    breaks conformance even when the in-memory decisions agree.
    """
    sim = Simulator()
    sink: list[Decision] = []

    def transmit(action: SendPacket) -> None:
        payload = decode_frame(encode_frame(action.payload)).payload
        dest: Any = action.dest
        if action.multicast_group is not None:
            dest = ("group", action.multicast_group)
        sink.append(
            ("packet", repr(sim.now), action.kind, dest, repr(payload))
        )

    driver = drive(
        _build_core(trace, _config(trace), sim.now),
        sim,
        transmit,
        on_complete=lambda t: sink.append(("complete", repr(t))),
        max_rate_bps=LINK_RATE_BPS,
    )
    for event in trace["events"]:
        sim.run(until=event["t"])
        _inject(trace, event, driver)
    sim.run(until=trace["horizon"])
    return sink
