#!/usr/bin/env python
"""Print one state digest per window of events for a golden cell.

Builds one cell of ``tests/experiments/test_golden_fingerprints.py``
through ``build_environment`` + ``offer_transfers`` and steps its simulator
``--window`` events at a time.  At each window boundary it prints the
window index, the events processed so far and a sha256 of

    (now, events_processed,
     [(port name, transmitted_bytes, queue length) for every port in name order],
     [(transfer id, completion time) for every completion so far])

so two builds of the engine or the fabric that fire the same callbacks in
the same ``(time, seq)`` order print the same lines, and the first line that
differs says roughly when they parted.  ``tests/sim/test_event_order.py``
pins these digests for four cells.

``--tied`` sets every link's delay to one full-size Polyraptor symbol
packet's serialisation time.  A port's propagation event and its next
serialisation event then end at the same instant, and only the order they
were scheduled in decides which fires first; with the paper's 10 us delay
they never tie, so reversing that order moves nothing there.

Usage::

    PYTHONPATH=src python scripts/event_windows.py polyraptor-unicast [--window 500] [--tied]
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN_CELLS = REPO_ROOT / "tests" / "experiments" / "test_golden_fingerprints.py"

DEFAULT_WINDOW = 500


def _golden_module():
    spec = importlib.util.spec_from_file_location("golden_fingerprints", GOLDEN_CELLS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(env) -> str:
    ports = sorted(env.network.directed_ports.values(), key=lambda port: port.name)
    state = (
        repr(env.sim.now),
        env.sim.events_processed,
        [(port.name, port.transmitted_bytes, len(port.queue)) for port in ports],
        [(record.transfer_id, repr(record.completion_time))
         for record in env.registry.completed_records],
    )
    return hashlib.sha256(json.dumps(state).encode("utf-8")).hexdigest()


def window_digests(cell: str, window: int = DEFAULT_WINDOW,
                   tied: bool = False) -> list[tuple[int, str]]:
    """``(events processed, state digest)`` after every ``window`` events and at the end."""
    from repro.experiments.runner import build_environment, offer_transfers
    from repro.utils.units import serialization_delay

    golden = _golden_module()
    protocol, config, transfers, kwargs = golden._cell(cell)
    if tied:
        fabric = kwargs.get("network_config") or config.network_config(protocol)
        delay = serialization_delay(config.polyraptor.symbol_packet_bytes, fabric.link_rate_bps)
        kwargs["network_config"] = replace(fabric, link_delay_s=delay)
    env = build_environment(protocol, config, topology=golden.TOPOLOGY, **kwargs)
    try:
        offer_transfers(env, protocol, transfers)
        digests = []
        while True:
            processed = env.sim.run(until=config.max_sim_time_s, max_events=window)
            digests.append((env.sim.events_processed, _digest(env)))
            if processed < window:
                return digests
    finally:
        env.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cell", help="a cell name from the golden fingerprint matrix")
    parser.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                        help="events per window (default %(default)s)")
    parser.add_argument("--tied", action="store_true",
                        help="link delay = one symbol packet's serialisation time")
    args = parser.parse_args(argv)
    for index, (events, digest) in enumerate(window_digests(args.cell, args.window, args.tied)):
        print(f"{index:5d} {events:10d} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
