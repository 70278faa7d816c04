"""Layer probes: the benchmark timing its own calls into one layer at a time.

Each probe calls only public functions of one ``repro`` package, repeats the
call a few times and reports the median, so a layer has a number that does
not depend on any workload's mix.  Probes run in the traced process after
the traced iterations, with the tracer uninstalled.  Shapes come from the
workloads' own sizes (``sizes`` maps workload name -> size dict), so the
kernel probe multiplies exactly the R.D shape a ``sim_payload`` block
replays and the wire probe frames a symbol at the granted size.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from collections import deque
from dataclasses import replace
from typing import Callable

import numpy as np

from repro.core.config import PolyraptorConfig
from repro.core.packets import DoneAckPayload, DonePayload, PullPayload, SymbolPayload
from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.resilience import permutation_workload
from repro.experiments.runner import run_transfers
from repro.net.driver import wire_config
from repro.net.wire import decode_frame, encode_frame
from repro.network.topology import FatTreeTopology
from repro.obs.config import TelemetryConfig
from repro.protocol.actions import EnqueuePull, SendPacket
from repro.protocol.receiver import ReceiverCore
from repro.protocol.sender import SenderCore
from repro.rq.backend import CodecContext
from repro.rq.block import partition_object
from repro.rq.decoder import BlockDecoder
from repro.rq.encoder import BlockEncoder
from repro.rq.kernels import get_kernel
from repro.rq.params import for_k
from repro.rq.plan import build_plan, constraint_matrix
from repro.sim.engine import Simulator


def _median_s(call: Callable[[], object], repeats: int) -> float:
    """Median wall of ``repeats`` calls, after one untimed call."""
    call()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _payload_block(sizes: dict) -> tuple[int, int]:
    """(K, symbol size) of the first block of a ``sim_payload`` object."""
    config = PolyraptorConfig()
    oti = partition_object(sizes["sim_payload"]["object_bytes"], config.symbol_size_bytes,
                           config.max_symbols_per_block)
    return oti.block_symbol_count(0), config.symbol_size_bytes


def kernels(sizes: dict, repeats: int) -> dict[str, float]:
    k, symbol_size = _payload_block(sizes)
    params = for_k(k)
    rng = np.random.default_rng(k)
    plane = rng.integers(0, 256, (k, symbol_size), dtype=np.uint8)
    constraints = params.num_ldpc_symbols + params.num_hdpc_symbols
    # The real encode operator: its zero columns are what `blocked` skips.
    operator = build_plan(constraint_matrix(params), record_steps=False).operator[:, constraints:]
    factors = rng.integers(1, 256, k, dtype=np.uint8)
    default, oracle = get_kernel(), get_kernel("numpy")
    megabytes = plane.nbytes / 1e6
    return {
        "rq.kernels.matmul_mb_s": megabytes / _median_s(lambda: default.matmul(operator, plane), repeats),
        "rq.kernels.matmul_mb_s.numpy": megabytes / _median_s(lambda: oracle.matmul(operator, plane), repeats),
        "rq.kernels.scale_rows_mb_s": megabytes / _median_s(lambda: default.scale_rows(plane, factors), repeats),
    }


def codec(sizes: dict, repeats: int) -> dict[str, float]:
    k, symbol_size = _payload_block(sizes)
    rng = np.random.default_rng(k + 1)
    source = [rng.integers(0, 256, symbol_size, dtype=np.uint8).tobytes() for _ in range(k)]
    warm = CodecContext()
    encoder = BlockEncoder(source, context=warm)
    missing = max(1, k // 10)
    repairs = encoder.symbol_block(range(k, k + 4 * missing * (repeats + 2)))

    def decode(context: CodecContext, pattern: int) -> None:
        # Lose `missing` sources (which ones depends on `pattern`); replace
        # them with the pattern's own repair symbols plus the usual overhead.
        lost = set(range(pattern % 7, k, max(1, k // missing))[:missing])
        decoder = BlockDecoder(k, symbol_size, context=context)
        for esi in range(k):
            if esi not in lost:
                decoder.add_symbol(esi, source[esi])
        for row in range(missing + 2):
            esi = k + pattern * (missing + 2) + row
            decoder.add_symbol(esi, repairs[esi - k].tobytes())
        if b"".join(decoder.decode_or_raise()) != b"".join(source):
            raise AssertionError("codec probe decoded the wrong bytes")

    patterns = iter(range(1, repeats + 2))
    return {
        "rq.encode_ms_per_block_warm": 1e3 * _median_s(lambda: BlockEncoder(source, context=warm), repeats),
        "rq.encode_ms_per_block_cold": 1e3 * _median_s(lambda: BlockEncoder(source, context=CodecContext()), repeats),
        "rq.decode_ms_per_block_warm": 1e3 * _median_s(lambda: decode(warm, 0), repeats),
        "rq.decode_ms_per_block_cold": 1e3 * _median_s(lambda: decode(warm, next(patterns)), repeats),
    }


def protocol(object_bytes: int) -> dict[str, float]:
    """A SenderCore and a ReceiverCore wired back to back: no clock, no fabric."""
    config = PolyraptorConfig()
    sender = SenderCore(config, session_id=1, object_bytes=object_bytes, receiver_host_ids=[1],
                        local_host=0, link_rate_bps=1e9)
    receiver = ReceiverCore(config, session_id=1, object_bytes=object_bytes, local_host=1,
                            expected_senders=[0])
    inbox: deque = deque()

    def drain(core) -> None:
        for action in core.poll_actions():
            if isinstance(action, SendPacket):
                inbox.append(action.payload)
            elif isinstance(action, EnqueuePull):
                pull = receiver.build_pull(action.target_sender)
                if pull is not None:
                    inbox.append(pull)

    start = time.perf_counter()
    sender.start(0.0)
    drain(sender)
    while inbox:
        payload = inbox.popleft()
        if isinstance(payload, SymbolPayload):
            receiver.on_symbol(payload, trimmed=False)
        elif isinstance(payload, PullPayload):
            sender.on_pull(payload, 0.0)
        elif isinstance(payload, DonePayload):
            sender.on_done(payload, 0.0)
        elif isinstance(payload, DoneAckPayload):
            receiver.on_done_ack(payload)
        drain(receiver)
        drain(sender)
    elapsed = time.perf_counter() - start
    if not (receiver.completed and sender.completed):
        raise AssertionError("protocol probe did not complete its session")
    return {"protocol.symbols_per_s": receiver.symbols_received / elapsed}


def engine(events: int) -> dict[str, float]:
    """Bare dispatch: 64 self-rescheduling no-op chains."""
    sim = Simulator()

    def tick() -> None:
        sim.schedule(1e-6, tick)

    for _ in range(64):
        sim.schedule(0.0, tick)
    start = time.perf_counter()
    sim.run(max_events=events)
    return {"sim.engine.noop_events_per_s": events / (time.perf_counter() - start)}


def wire(frames: int) -> dict[str, float]:
    config = wire_config()
    payload = SymbolPayload(
        session_id=7, sender_host=0, block_number=1, esi=123, block_symbol_count=248,
        num_blocks=3, object_bytes=1 << 20, sequence=99,
        data=(bytes(range(256)) * 8)[: config.symbol_size_bytes],
    )
    datagram = encode_frame(payload, sent_at=1.5)
    if decode_frame(datagram).payload != payload:
        raise AssertionError("wire probe frame did not round-trip")

    def loop(call: Callable[[], object]) -> float:
        start = time.perf_counter()
        for _ in range(frames):
            call()
        return 1e6 * (time.perf_counter() - start) / frames

    return {
        "net.wire.encode_us_per_frame": loop(lambda: encode_frame(payload, sent_at=1.5)),
        "net.wire.decode_us_per_frame": loop(lambda: decode_frame(datagram)),
    }


def cli_import(repeats: int) -> dict[str, float]:
    """``import repro.cli`` in a fresh interpreter: the floor under every set-up."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro.cli"], check=True, env=env, timeout=120)
        times.append(time.perf_counter() - start)
    return {"cli.import_s": statistics.median(times)}


def telemetry(sizes: dict, pairs: int) -> dict[str, float]:
    """Polyraptor ``sim_identity`` cell, flight recorder on over off, alternating."""
    cell = sizes["sim_identity"]
    topology = FatTreeTopology(cell["fattree_k"])
    off = ExperimentConfig(
        fattree_k=cell["fattree_k"], num_foreground_transfers=cell["transfers"],
        object_bytes=cell["object_bytes"], background_fraction=0.0,
        offered_load=cell["load"], seed=1, max_sim_time_s=30.0,
    )
    on = replace(off, telemetry=TelemetryConfig())
    transfers = permutation_workload(off, topology)
    walls: dict[bool, list[float]] = {False: [], True: []}
    for _ in range(pairs):
        for config in (off, on):
            start = time.perf_counter()
            run_transfers(Protocol.POLYRAPTOR, config, transfers, topology=topology)
            walls[config is on].append(time.perf_counter() - start)
    return {"obs.telemetry_on_ratio": statistics.median(walls[True]) / statistics.median(walls[False])}


def run_all(sizes: dict, quick: bool) -> dict[str, float]:
    """Every probe; ``quick`` shrinks repeat counts, not shapes."""
    repeats = 1 if quick else 5
    out: dict[str, float] = {}
    out.update(kernels(sizes, repeats))
    out.update(codec(sizes, 1 if quick else 3))
    out.update(protocol(200_000 if quick else 4_000_000))
    out.update(engine(20_000 if quick else 200_000))
    out.update(wire(2_000 if quick else 20_000))
    out.update(cli_import(1 if quick else 3))
    out.update(telemetry(sizes, 1 if quick else 3))
    return out
