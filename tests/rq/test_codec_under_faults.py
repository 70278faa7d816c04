"""Codec coverage under fault-shaped loss: the test-debt satellite for PR 3/4.

Seeded randomized encode/decode round-trip property tests across every GF
kernel (``numpy`` and ``bitplane``) at 0-30% symbol loss -- the loss regime the fault and
gray-failure models produce -- asserting byte-identical recovery on every
kernel and that every lossy block decodes through the plan its block size
was encoded with.  Plus a regression test for the ``plan_store_for_jobs``
stale-schema warn+rebuild path (PR 4's satellite fix).
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro.rq.api import decode_object, encode_object
from repro.rq.backend import CodecContext, prewarm_encode_plans
from repro.rq.decoder import BlockDecoder
from repro.rq.encoder import BlockEncoder
from repro.rq.kernels import available_kernels
from repro.rq.plan import PLAN_STORE_SCHEMA, PlanStore

SYMBOL_SIZE = 48
OBJECT_BYTES = 4000  # several blocks at max_symbols_per_block=32
MAX_SYMBOLS_PER_BLOCK = 32

#: (loss fraction, seed) pairs spanning the fault models' loss regime:
#: healthy, gray-failure-grade trickle, and heavy correlated damage.
LOSS_CASES = [(0.0, 101), (0.1, 102), (0.3, 103)]


def _object_bytes(seed: int = 5) -> bytes:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, OBJECT_BYTES, dtype=np.uint8).tobytes()


def _lossy_subset(symbols, loss: float, rng: random.Random, min_keep_per_block: dict):
    """Drop each symbol with probability ``loss``, keeping blocks decodable.

    Deterministic: the Bernoulli draws come from the caller's seeded rng;
    if a block ends up below its decodability floor, dropped symbols are
    restored in transmission order (exactly what retransmitted repair
    symbols do in the live protocol).
    """
    kept, dropped = [], []
    for symbol in symbols:
        (dropped if rng.random() < loss else kept).append(symbol)
    counts: dict[int, int] = {}
    for symbol in kept:
        counts[symbol.block_number] = counts.get(symbol.block_number, 0) + 1
    for symbol in dropped:
        block = symbol.block_number
        if counts.get(block, 0) < min_keep_per_block[block]:
            kept.append(symbol)
            counts[block] = counts.get(block, 0) + 1
    return kept


@pytest.mark.parametrize("kernel", available_kernels())
@pytest.mark.parametrize("loss,seed", LOSS_CASES)
class TestRoundTripUnderLoss:
    def test_object_recovers_byte_identically(self, kernel, loss, seed):
        data = _object_bytes()
        context = CodecContext("planned", kernel=kernel)
        oti, symbols = encode_object(
            data, symbol_size=SYMBOL_SIZE,
            repair_symbols_per_block=MAX_SYMBOLS_PER_BLOCK,  # 100% overhead budget
            max_symbols_per_block=MAX_SYMBOLS_PER_BLOCK, context=context,
        )
        assert oti.num_source_blocks >= 3  # the multi-block regime transfers hit
        floors = {
            block: oti.block_symbol_count(block) + 2
            for block in range(oti.num_source_blocks)
        }
        received = _lossy_subset(symbols, loss, random.Random(seed), floors)
        if loss > 0:
            assert len(received) < len(symbols)  # loss actually struck
        recovered = decode_object(oti, received, context=context)
        assert recovered == data

    def test_kernels_agree_on_the_same_loss_pattern(self, kernel, loss, seed):
        """Every kernel recovers the identical bytes from the identical
        surviving symbol set (GF(256) arithmetic is exact)."""
        data = _object_bytes(seed=7)
        reference_context = CodecContext("planned", kernel="numpy")
        oti, symbols = encode_object(
            data, symbol_size=SYMBOL_SIZE,
            repair_symbols_per_block=MAX_SYMBOLS_PER_BLOCK,
            max_symbols_per_block=MAX_SYMBOLS_PER_BLOCK, context=reference_context,
        )
        floors = {
            block: oti.block_symbol_count(block) + 2
            for block in range(oti.num_source_blocks)
        }
        received = _lossy_subset(symbols, loss, random.Random(seed), floors)
        context = CodecContext("planned", kernel=kernel)
        assert decode_object(oti, received, context=context) == \
            decode_object(oti, received, context=reference_context) == data

    def test_encoded_symbols_identical_across_kernels(self, kernel, loss, seed):
        del loss, seed  # encoding is loss-independent; parametrised for sweep shape
        data = _object_bytes(seed=9)
        reference = encode_object(
            data, symbol_size=SYMBOL_SIZE, repair_symbols_per_block=4,
            max_symbols_per_block=MAX_SYMBOLS_PER_BLOCK,
            context=CodecContext("planned", kernel="numpy"),
        )[1]
        under_test = encode_object(
            data, symbol_size=SYMBOL_SIZE, repair_symbols_per_block=4,
            max_symbols_per_block=MAX_SYMBOLS_PER_BLOCK,
            context=CodecContext("planned", kernel=kernel),
        )[1]
        assert [(s.block_number, s.esi, s.data) for s in reference] == \
            [(s.block_number, s.esi, s.data) for s in under_test]


class TestCanonicalPlansUnderLoss:
    K = 16

    def _sources(self, seed: int) -> list[bytes]:
        rng = np.random.default_rng(seed)
        return [
            rng.integers(0, 256, SYMBOL_SIZE, dtype=np.uint8).tobytes()
            for _ in range(self.K)
        ]

    @pytest.mark.parametrize("kernel", available_kernels())
    def test_same_missing_pattern_hits_across_surplus_counts(self, kernel):
        """Blocks that lost the same source symbols decode through the plan
        they were encoded with, however many surplus repair symbols each
        received: no decode ever builds a plan of its own."""
        context = CodecContext("planned", kernel=kernel)
        lost = (0, 3)  # the same two source symbols vanish from every block
        for round_number, surplus in enumerate((0, 2, 4)):
            sources = self._sources(seed=20 + round_number)
            encoder = BlockEncoder(sources, context=context)
            esis = tuple(
                esi for esi in range(self.K) if esi not in lost
            ) + tuple(range(self.K, self.K + len(lost) + surplus))
            decoder = BlockDecoder(self.K, SYMBOL_SIZE, context=context)
            for esi in esis:
                decoder.add_symbol(esi, encoder.symbol(esi))
            result = decoder.decode()
            assert result.success
            assert result.source_symbols == sources
        # The first encode built the one plan; all three decodes hit it.
        assert context.stats.misses == 1
        assert context.decode_stats.misses == 0
        assert context.decode_stats.hits == 3


class TestPlanStoreSchemaRegression:
    """Regression: ``plan_store_for_jobs`` warns and rebuilds on any store
    whose schema is not the current one -- the pre-versioning v1 shape
    (covered in test_parallel), v2 with its decode keys nothing looks up any
    more, and a *future* schema."""

    def _payload_jobs(self):
        from dataclasses import replace as dc_replace

        from repro.core.config import PolyraptorConfig
        from repro.experiments.config import ExperimentConfig, Protocol
        from repro.experiments.parallel import RunJob
        from repro.workloads.spec import TransferKind, TransferSpec

        config = dc_replace(
            ExperimentConfig.quick(),
            polyraptor=PolyraptorConfig(carry_payload=True),
        )
        spec = TransferSpec(
            transfer_id=1, kind=TransferKind.UNICAST, client="h0",
            peers=("h15",), size_bytes=8 * 1024, start_time=0.0,
        )
        return [RunJob(key=(1,), protocol=Protocol.POLYRAPTOR,
                       config=config, transfers=(spec,))]

    def test_current_schema_cache_loads_silently(self, tmp_path):
        import warnings

        from repro.experiments.parallel import plan_store_for_jobs, set_plan_cache_path

        path = tmp_path / "plans.pkl"
        prewarm_encode_plans([11]).save(path)
        assert PlanStore.load(path).schema == PLAN_STORE_SCHEMA == 3
        set_plan_cache_path(path)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # any warning fails the test
                store = plan_store_for_jobs(self._payload_jobs())
        finally:
            set_plan_cache_path(None)
        assert store is not None and len(store) >= 1

    def _assert_warns_and_rebuilds(self, tmp_path, schema):
        from repro.experiments.parallel import plan_store_for_jobs, set_plan_cache_path

        stale = prewarm_encode_plans([11])
        stale.schema = schema
        path = tmp_path / "plans.pkl"
        path.write_bytes(pickle.dumps(stale, protocol=pickle.HIGHEST_PROTOCOL))
        set_plan_cache_path(path)
        try:
            with pytest.warns(RuntimeWarning, match="discarding plan cache"):
                store = plan_store_for_jobs(self._payload_jobs())
        finally:
            set_plan_cache_path(None)
        assert store is not None and len(store) >= 1
        assert PlanStore.load(path).schema == PLAN_STORE_SCHEMA

    def test_future_schema_cache_warns_and_is_rebuilt(self, tmp_path):
        self._assert_warns_and_rebuilds(tmp_path, PLAN_STORE_SCHEMA + 1)

    def test_v2_schema_cache_warns_and_is_rebuilt(self, tmp_path):
        # v2 stores carry canonical decode keys nothing looks up any more.
        self._assert_warns_and_rebuilds(tmp_path, 2)
