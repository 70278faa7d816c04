"""Micro-benchmarks of the GF(256) kernel layer.

Measures warm repeated-block encode/decode with the codec context computing
on each kernel -- the steady state of any real transfer mix, where the per-K'
basis is built and the kernel matmul is the whole cost.  "Encode" is what a sender pays for one block
under the benchmark's own 30 % loss pattern: constructing the encoder (no
linear algebra) plus generating exactly the repair symbols that pattern
consumes.  Results land in ``benchmarks/results/BENCH_gf_kernels.json`` so
future PRs can track kernel throughput over time.

The headline assertion: the codec's kernel (``bitplane``) beats the
``numpy`` oracle kernel on warm repeated-block work.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

from repro.rq.backend import CodecContext
from repro.rq.decoder import BlockDecoder
from repro.rq.encoder import BlockEncoder
from repro.rq.kernels import get_kernel
from repro.rq.params import for_k

SYMBOL_SIZE = 1408
RESULTS_DIR = Path(__file__).parent / "results"

#: Warm-block speedup the codec's kernel must reach over ``numpy`` on
#: combined encode+decode time at the largest K'.  Kept modest so CI hardware
#: noise cannot flip a real improvement into a failure.
SPEEDUP_FLOOR = 1.05


def _source_blocks(k: int, count: int = 5) -> list[list[bytes]]:
    blocks = []
    for seed in range(count):
        rng = random.Random(seed)
        blocks.append(
            [bytes(rng.getrandbits(8) for _ in range(SYMBOL_SIZE)) for _ in range(k)]
        )
    return blocks


def _lossy_esis(k: int, seed: int = 2) -> list[int]:
    rng = random.Random(seed)
    kept = [esi for esi in range(k) if rng.random() > 0.3]
    return kept + list(range(k, k + (k - len(kept)) + 2))


def _time_per_block(action, blocks, repeats: int = 3) -> float:
    """Best-of-``repeats`` seconds per block.

    Taking the minimum over repeated timing windows is the standard defence
    against scheduler noise on shared CI runners: interference can only
    inflate a window, so the minimum is the closest estimate of true cost,
    and the speedup gate below stays stable without weakening the floor.
    """
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for block in blocks:
            action(block)
        best = min(best, (time.perf_counter() - start) / len(blocks))
    return best


def _context_on(name: str) -> CodecContext:
    """A codec context whose products run on the named kernel."""
    context = CodecContext()
    context.kernel = get_kernel(name)
    return context


def _measure_kernel(name: str, k: int, blocks, esis) -> tuple[float, float]:
    """Warm-block (encode_s, decode_s) for one kernel at one K'."""
    context = _context_on(name)
    warm_encoder = BlockEncoder(blocks[0], context=context)
    symbols = [(esi, warm_encoder.symbol(esi)) for esi in esis]
    repairs = [esi for esi in esis if esi >= k]

    def decode(_block):
        decoder = BlockDecoder(k, SYMBOL_SIZE, context=context)
        for esi, data in symbols:
            decoder.add_symbol(esi, data)
        assert decoder.decode().success

    decode(blocks[0])  # untimed: fills the LT-neighbour memo
    encode_s = _time_per_block(
        lambda block: BlockEncoder(block, context=context).symbol_block(repairs), blocks
    )
    decode_s = _time_per_block(decode, blocks)
    return encode_s, decode_s


def test_kernel_throughput(benchmark):
    """Warm-block throughput per kernel."""
    kernels = ["bitplane", "numpy"]
    best = get_kernel().name
    series = []
    for k in (32, 128):
        for_k(k)  # exclude the cached parameter search from every measurement
        blocks = _source_blocks(k)
        esis = _lossy_esis(k)
        encode_times: dict[str, float] = {}
        decode_times: dict[str, float] = {}
        for name in kernels:
            encode_times[name], decode_times[name] = _measure_kernel(
                name, k, blocks, esis
            )
        point = {
            "k": k,
            "encode_s_per_block": encode_times,
            "decode_s_per_block": decode_times,
            "best_kernel": best,
            "best_speedup_vs_numpy": {
                "encode": encode_times["numpy"] / encode_times[best],
                "decode": decode_times["numpy"] / decode_times[best],
                "combined": (encode_times["numpy"] + decode_times["numpy"])
                / (encode_times[best] + decode_times[best]),
            },
        }
        series.append(point)
        print(
            f"\nK'={k}: best={best} "
            f"encode {point['best_speedup_vs_numpy']['encode']:.2f}x, "
            f"decode {point['best_speedup_vs_numpy']['decode']:.2f}x vs numpy"
        )

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_gf_kernels.json").write_text(
        json.dumps(
            {
                "symbol_size": SYMBOL_SIZE,
                "unit": "seconds_per_block_warm",
                "kernels_measured": kernels,
                "best_kernel": best,
                "series": series,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    # Register the headline path (warm encode on the best kernel) with
    # pytest-benchmark so --benchmark-only runs select this test.
    best_context = CodecContext()
    blocks = _source_blocks(128, count=1)
    repairs = [esi for esi in _lossy_esis(128) if esi >= 128]

    def encode():
        return BlockEncoder(blocks[0], context=best_context).symbol_block(repairs)

    encode()  # warm
    benchmark.pedantic(encode, rounds=3, iterations=1)

    big = series[-1]
    combined = big["best_speedup_vs_numpy"]["combined"]
    assert combined >= SPEEDUP_FLOOR, (
        f"best kernel {best!r} only reached {combined:.2f}x the numpy kernel "
        f"on warm K'=128 blocks (floor: {SPEEDUP_FLOOR}x)"
    )


def test_each_kernel_decodes_byte_identically():
    """Sanity companion to the timing: the faster kernel changes no bytes."""
    k = 32
    blocks = _source_blocks(k, count=1)
    esis = _lossy_esis(k)
    decoded = {}
    for kernel in ("numpy", "bitplane"):
        context = _context_on(kernel)
        encoder = BlockEncoder(blocks[0], context=context)
        decoder = BlockDecoder(k, SYMBOL_SIZE, context=context)
        for esi in esis:
            decoder.add_symbol(esi, encoder.symbol(esi))
        decoded[kernel] = decoder.decode().source_symbols
    assert decoded["bitplane"] == decoded["numpy"] == blocks[0]
