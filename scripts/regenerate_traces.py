#!/usr/bin/env python
"""Regenerate the sim/wire conformance trace corpus.

Writes ``tests/protocol/traces/*.json``.  Every value is a fixed literal
computed from protocol constants -- no randomness, no clocks -- so the
corpus is byte-stable: rerunning this script produces identical files
unless a trace definition here changes.

Usage::

    PYTHONPATH=src python scripts/regenerate_traces.py

Trace format (one session per file)::

    {
      "name":    "<trace name>",
      "kind":    "receiver" | "sender",
      "config":  { ...PolyraptorConfig overrides... },
      "session": { "session_id": ..., "object_bytes": ..., ... },
      "events":  [ {"t": <seconds>, "type": ..., ...}, ... ],
      "horizon": <seconds past the last event to keep running timers>,
      "expect_complete": true | false
    }

Event types: ``start`` / ``pull`` / ``done`` (sender sessions),
``start_fetch`` / ``symbol`` / ``done_ack`` (receiver sessions).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.rq.block import DEFAULT_SYMBOL_SIZE

TRACES_DIR = Path(__file__).resolve().parent.parent / "tests" / "protocol" / "traces"

#: Every trace uses a 12-source-symbol single-block object.
K = 12
OBJECT_BYTES = K * DEFAULT_SYMBOL_SIZE

SESSION = 7
RECEIVER_SENDERS = [11, 12]
SENDER_RECEIVERS = [21, 22]


def _symbol(t, sender, esi, sequence, **extra):
    event = {
        "t": t,
        "type": "symbol",
        "sender_host": sender,
        "block_number": 0,
        "esi": esi,
        "block_symbol_count": K,
        "num_blocks": 1,
        "sequence": sequence,
    }
    event.update(extra)
    return event


def receiver_clean() -> dict:
    """Two-sender fetch, no loss: request, stream in, DONE, both acks."""
    events = [{"t": 0.0, "type": "start_fetch"}]
    # Sender 11 serves even ESIs, sender 12 odd ones, strictly alternating;
    # each sender stamps its own unicast sequence stream.
    sequences = {11: 0, 12: 0}
    for i in range(K):
        sender = RECEIVER_SENDERS[i % 2]
        sequences[sender] += 1
        events.append(
            _symbol(0.0002 + i * 2e-05, sender, i, sequences[sender])
        )
    finish = events[-1]["t"]
    events.append({"t": finish + 1e-04, "type": "done_ack", "sender_host": 11})
    events.append({"t": finish + 1.2e-04, "type": "done_ack", "sender_host": 12})
    return {
        "name": "receiver_clean",
        "kind": "receiver",
        "config": {},
        "session": {
            "session_id": SESSION,
            "object_bytes": OBJECT_BYTES,
            "expected_senders": RECEIVER_SENDERS,
        },
        "events": events,
        "horizon": 0.01,
        "expect_complete": True,
    }


def receiver_stall() -> dict:
    """One sender, trims + sequence gaps, a stall-length quiet period, and a
    DONE ack that only lands after the first retransmission."""
    sender = 11
    events = [{"t": 0.0, "type": "start_fetch"}]
    t, seq = 0.0002, 0
    # Source symbols 0..7, with two trimmed arrivals and a sequence gap (the
    # estimator sees one symbol vanish) along the way.
    for esi in range(8):
        seq += 1
        if esi == 5:
            seq += 1  # a symbol was lost on the path: the stream gaps
        events.append(_symbol(t, sender, esi, seq))
        t += 2e-05
        if esi in (3, 6):
            seq += 1
            events.append(_symbol(t, sender, 0, seq, trimmed=True))
            t += 2e-05
    # Quiet period longer than two stall timeouts (2 x 500us): the stall
    # timer fires twice and re-issues pulls both times.
    t += 1.2e-03
    # ESIs 8..10 plus three repair symbols: 11 source + 3 repair = K + 2
    # distinct symbols, enough to declare the block decodable.
    for esi in (8, 9, 10, 12, 13, 14):
        seq += 1
        events.append(_symbol(t, sender, esi, seq))
        t += 2e-05
    finish = events[-1]["t"]
    # No ack until after the first DONE retransmission (stall_timeout later).
    events.append({"t": finish + 7e-04, "type": "done_ack", "sender_host": sender})
    return {
        "name": "receiver_stall",
        "kind": "receiver",
        "config": {},
        "session": {
            "session_id": SESSION,
            "object_bytes": OBJECT_BYTES,
            "expected_senders": [sender],
        },
        "events": events,
        "horizon": finish + 4e-03,
        "expect_complete": True,
    }


def receiver_wire_profile() -> dict:
    """Gap-triggered pulls (the real-network receiver profile): two sequence
    gaps that each replace a lost symbol's pull."""
    sender = 11
    events = [{"t": 0.0, "type": "start_fetch"}]
    t, seq = 0.0002, 0
    esis = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 14, 15]  # 10 source + 4 repair
    for i, esi in enumerate(esis):
        seq += 1
        if i in (3, 9):
            seq += 1  # lost datagram: no trim arrives, only the gap shows
        events.append(_symbol(t, sender, esi, seq))
        t += 2e-05
    return {
        "name": "receiver_wire_profile",
        "kind": "receiver",
        "config": {"pull_on_gap": True},
        "session": {
            "session_id": SESSION,
            "object_bytes": OBJECT_BYTES,
            "expected_senders": [sender],
        },
        "events": events,
        "horizon": 0.01,
        "expect_complete": True,
    }


def sender_unicast() -> dict:
    """Pull-clocked unicast push: initial window, six pulls, DONE."""
    receiver = SENDER_RECEIVERS[0]
    events = [{"t": 0.0, "type": "start"}]
    for i in range(6):
        events.append({
            "t": 0.0003 + i * 2e-05,
            "type": "pull",
            "receiver_host": receiver,
            "pull_sequence": i + 1,
            "block_hint": 0 if i >= 3 else None,
        })
    events.append({"t": 0.001, "type": "done", "receiver_host": receiver})
    return {
        "name": "sender_unicast",
        "kind": "sender",
        "config": {},
        "session": {
            "session_id": SESSION,
            "object_bytes": OBJECT_BYTES,
            "receiver_host_ids": [receiver],
        },
        "events": events,
        "horizon": 0.002,
        "expect_complete": True,
    }


def sender_startup() -> dict:
    """A receiver that stays dark through two startup probes, then pulls."""
    receiver = SENDER_RECEIVERS[0]
    events = [{"t": 0.0, "type": "start"}]
    # Silence until 1.7ms: startup probes fire at 0.5ms and 1.5ms.
    for i in range(3):
        events.append({
            "t": 0.0017 + i * 2e-05,
            "type": "pull",
            "receiver_host": receiver,
            "pull_sequence": i + 1,
            "block_hint": None,
        })
    events.append({"t": 0.0025, "type": "done", "receiver_host": receiver})
    return {
        "name": "sender_startup",
        "kind": "sender",
        "config": {},
        "session": {
            "session_id": SESSION,
            "object_bytes": OBJECT_BYTES,
            "receiver_host_ids": [receiver],
        },
        "events": events,
        "horizon": 0.004,
        "expect_complete": True,
    }


def sender_multicast() -> dict:
    """Two-receiver multicast push: pull aggregation rounds, then both DONE."""
    r1, r2 = SENDER_RECEIVERS
    events = [{"t": 0.0, "type": "start"}]
    t = 0.0003
    for round_number in range(4):
        for receiver in (r1, r2):
            events.append({
                "t": t,
                "type": "pull",
                "receiver_host": receiver,
                "pull_sequence": round_number + 1,
                "block_hint": None,
            })
            t += 1e-05
        t += 3e-05
    events.append({"t": 0.001, "type": "done", "receiver_host": r1})
    events.append({"t": 0.0012, "type": "done", "receiver_host": r2})
    return {
        "name": "sender_multicast",
        "kind": "sender",
        "config": {},
        "session": {
            "session_id": SESSION,
            "object_bytes": OBJECT_BYTES,
            "receiver_host_ids": [r1, r2],
            "multicast_group": 100,
        },
        "events": events,
        "horizon": 0.002,
        "expect_complete": True,
    }


TRACES = (
    receiver_clean,
    receiver_stall,
    receiver_wire_profile,
    sender_unicast,
    sender_startup,
    sender_multicast,
)


def render(trace: dict) -> str:
    """The exact text of one trace file."""
    return json.dumps(trace, indent=1, sort_keys=True) + "\n"


def main() -> None:
    TRACES_DIR.mkdir(parents=True, exist_ok=True)
    for build in TRACES:
        trace = build()
        path = TRACES_DIR / f"{trace['name']}.json"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(render(trace))
        print(f"wrote {path} ({len(trace['events'])} events)")


if __name__ == "__main__":
    main()
