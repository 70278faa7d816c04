"""Micro-benchmarks of the RaptorQ-style codec itself.

These quantify the "RQ encoding/decoding complexity and latency" the paper's
discussion section flags as an open question: encoder setup up to the first
repair symbol, per-symbol repair generation, and full-block decoding with
and without losses.  Constructing an encoder does no linear algebra, so
wherever "encode" is timed it means construction plus the repair symbols the
benchmark's loss pattern consumes.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

from repro.rq.backend import CodecContext
from repro.rq.decoder import BlockDecoder
from repro.rq.encoder import BlockEncoder
from repro.rq.params import for_k

SYMBOL_SIZE = 1408

RESULTS_DIR = Path(__file__).parent / "results"


def _source_block(k: int, seed: int = 1) -> list[bytes]:
    rng = random.Random(seed)
    return [bytes(rng.getrandbits(8) for _ in range(SYMBOL_SIZE)) for _ in range(k)]


@pytest.mark.parametrize("k", [32, 128])
def test_encoder_setup(benchmark, k):
    """Cost from a K-symbol block to its first repair symbol on the wire."""
    for_k(k)  # exclude the cached parameter/seed search from the measurement
    source = _source_block(k)
    symbol = benchmark(lambda: BlockEncoder(source).symbol(k))
    assert len(symbol) == SYMBOL_SIZE


@pytest.mark.parametrize("k", [32, 128])
def test_repair_symbol_generation(benchmark, k):
    """Cost of generating one repair symbol (the sender's steady-state work)."""
    encoder = BlockEncoder(_source_block(k))
    counter = iter(range(k, 10_000_000))
    symbol = benchmark(lambda: encoder.symbol(next(counter)))
    assert len(symbol) == SYMBOL_SIZE


@pytest.mark.parametrize("k", [32, 128])
def test_decode_without_loss(benchmark, k):
    """Decoding when every source symbol arrived: the systematic fast path."""
    encoder = BlockEncoder(_source_block(k))
    symbols = [(esi, encoder.symbol(esi)) for esi in range(k)]

    def decode():
        decoder = BlockDecoder(k, SYMBOL_SIZE)
        for esi, data in symbols:
            decoder.add_symbol(esi, data)
        return decoder.decode()

    result = benchmark(decode)
    assert result.success and not result.used_gaussian_elimination


@pytest.mark.parametrize("k", [32, 128])
def test_decode_with_30_percent_loss(benchmark, k):
    """Decoding with Gaussian elimination after losing 30% of the source symbols."""
    encoder = BlockEncoder(_source_block(k))
    rng = random.Random(2)
    kept = [esi for esi in range(k) if rng.random() > 0.3]
    repair = list(range(k, k + (k - len(kept)) + 2))
    symbols = [(esi, encoder.symbol(esi)) for esi in kept + repair]

    def decode():
        decoder = BlockDecoder(k, SYMBOL_SIZE)
        for esi, data in symbols:
            decoder.add_symbol(esi, data)
        return decoder.decode()

    result = benchmark(decode)
    assert result.success and result.used_gaussian_elimination


def _time_per_block(action, blocks) -> float:
    """Average seconds to process one block across ``blocks`` inputs."""
    start = time.perf_counter()
    for block in blocks:
        action(block)
    return (time.perf_counter() - start) / len(blocks)


def _update_trajectory(point: dict) -> None:
    """Merge one K' measurement into the BENCH_rq_codec.json trajectory file."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_rq_codec.json"
    trajectory = {"symbol_size": SYMBOL_SIZE, "unit": "seconds_per_block_warm", "series": []}
    if path.exists():
        try:
            trajectory = json.loads(path.read_text(encoding="utf-8"))
        except (ValueError, OSError):
            pass
    series = [entry for entry in trajectory.get("series", []) if entry.get("k") != point["k"]]
    series.append(point)
    trajectory["series"] = sorted(series, key=lambda entry: entry["k"])
    path.write_text(json.dumps(trajectory, indent=2) + "\n", encoding="utf-8")


@pytest.mark.parametrize("k", [32, 64, 128])
def test_repeated_block_backend_throughput(benchmark, k):
    """The headline number of this codec architecture: warm-block speedup.

    The first block of a K' pays for Gaussian elimination under either
    backend; every later block with the same parameters reads the cached
    elimination plan under the ``planned`` backend.  This benchmark measures
    second-and-later blocks only (the steady state of any real transfer mix):
    encode = construct + generate the repair symbols the 30 % loss pattern
    consumes, decode = recover the block from that pattern.  It writes a ``BENCH_rq_codec.json`` trajectory so future PRs can track
    codec throughput over time.
    """
    blocks = [_source_block(k, seed) for seed in range(5)]
    loss_rng = random.Random(2)
    kept = [esi for esi in range(k) if loss_rng.random() > 0.3]
    repair = list(range(k, k + (k - len(kept)) + 2))
    esis = kept + repair

    contexts = {name: CodecContext(name) for name in ("reference", "planned")}
    encode_times: dict[str, float] = {}
    decode_times: dict[str, float] = {}
    for name, context in contexts.items():
        # Warm the parameter cache and (for `planned`) the plan cache.
        warm_encoder = BlockEncoder(blocks[0], context=context)
        symbols = [(esi, warm_encoder.symbol(esi)) for esi in esis]

        def decode(_block, _symbols=symbols, _context=context):
            decoder = BlockDecoder(k, SYMBOL_SIZE, context=_context)
            for esi, data in _symbols:
                decoder.add_symbol(esi, data)
            assert decoder.decode().success

        decode(blocks[0])  # untimed: fills the LT-neighbour memo
        encode_times[name] = _time_per_block(
            lambda block, _context=context: BlockEncoder(block, context=_context).symbol_block(repair),
            blocks,
        )
        decode_times[name] = _time_per_block(decode, blocks)

    # Register the headline path (warm-block encode on the planned backend)
    # with pytest-benchmark so `--benchmark-only` runs select this test.
    benchmark.pedantic(
        lambda: BlockEncoder(blocks[0], context=contexts["planned"]).symbol_block(repair),
        rounds=3, iterations=1,
    )

    encode_speedup = encode_times["reference"] / encode_times["planned"]
    decode_speedup = decode_times["reference"] / decode_times["planned"]
    _update_trajectory(
        {
            "k": k,
            "encode_s_per_block": encode_times,
            "decode_s_per_block": decode_times,
            "encode_speedup": encode_speedup,
            "decode_speedup": decode_speedup,
            "planned_cache": contexts["planned"].stats_dict()["plan_cache"],
        }
    )
    print(
        f"\nK'={k}: encode {encode_speedup:.1f}x, decode {decode_speedup:.1f}x "
        "(planned vs reference, warm blocks)"
    )
    # The reference backend solves for all L intermediate symbols per block;
    # planned multiplies one generator row per repair actually sent and
    # decodes a system as small as the loss.  The encode gate stays at "not
    # slower": its margin shrinks as the loss pattern asks for more repairs.
    assert encode_speedup >= 1.0, (
        f"K'={k}: warm-block encode is {encode_speedup:.2f}x the reference backend's speed"
    )
    assert decode_speedup >= 3.0, (
        f"K'={k}: warm-block decode speedup {decode_speedup:.1f}x below the 3x floor"
    )
