"""Tests for the picklable PlanStore and plan pre-warming.

The store is the artifact that lets sharded experiment runs share one set of
elimination plans: these tests pin down the save/load round-trip, the
cache <-> store conversions and the guarantee that a preloaded context
produces byte-identical symbols with zero misses.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.rq.backend import CodecContext, prewarm_encode_plans
from repro.rq.decoder import BlockDecoder
from repro.rq.encoder import BlockEncoder
from repro.rq.params import for_k
from repro.rq.plan import (
    PLAN_STORE_SCHEMA,
    PlanCache,
    PlanStore,
    PlanStoreSchemaError,
)

K = 16
SYMBOL_SIZE = 32


def _source_symbols(seed: int = 3):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, SYMBOL_SIZE, dtype=np.uint8).tobytes() for _ in range(K)]


class TestPlanStoreRoundTrip:
    def test_save_load_preserves_plans(self, tmp_path):
        store = prewarm_encode_plans([K])
        path = store.save(tmp_path / "plans.pkl")
        loaded = PlanStore.load(path)
        assert set(loaded.plans) == set(store.plans)
        for key, plan in store.plans.items():
            other = loaded.plans[key]
            assert other.num_rows == plan.num_rows
            assert other.num_unknowns == plan.num_unknowns
            assert np.array_equal(other.operator, plan.operator)

    def test_loaded_operators_are_read_only(self, tmp_path):
        store = prewarm_encode_plans([K])
        loaded = PlanStore.load(store.save(tmp_path / "plans.pkl"))
        plan = next(iter(loaded.plans.values()))
        assert not plan.operator.flags.writeable

    def test_bytes_round_trip(self):
        store = prewarm_encode_plans([K])
        assert len(PlanStore.from_bytes(store.to_bytes())) == len(store)

    def test_from_bytes_rejects_other_objects(self):
        with pytest.raises(TypeError):
            PlanStore.from_bytes(pickle.dumps({"not": "a store"}))

    def test_store_records_current_schema(self):
        assert PlanStore().schema == PLAN_STORE_SCHEMA
        assert prewarm_encode_plans([K]).schema == PLAN_STORE_SCHEMA

    def test_other_schema_rejected_cleanly(self):
        store = prewarm_encode_plans([K])
        store.schema = PLAN_STORE_SCHEMA + 1
        with pytest.raises(PlanStoreSchemaError, match="schema"):
            PlanStore.from_bytes(store.to_bytes())

    def test_legacy_unversioned_pickle_rejected(self, tmp_path):
        # Stores written before versioning carried no schema field at all;
        # they restore as schema 1 and must be refused, not served.
        store = prewarm_encode_plans([K])
        del store.__dict__["schema"]
        path = tmp_path / "legacy.pkl"
        path.write_bytes(pickle.dumps(store, protocol=pickle.HIGHEST_PROTOCOL))
        with pytest.raises(PlanStoreSchemaError, match="v1"):
            PlanStore.load(path)

    def test_merge_keeps_existing_plans(self):
        first = prewarm_encode_plans([K])
        second = prewarm_encode_plans([K, K + 1])
        original = first.plans[("encode", for_k(K))]
        first.merge(second)
        assert len(first) == 2
        assert first.plans[("encode", for_k(K))] is original


class TestCacheStoreConversions:
    def test_snapshot_contains_lazily_built_plans(self):
        # "Lazily" means on the first repair symbol: sources alone build nothing.
        context = CodecContext("planned")
        encoder = BlockEncoder(_source_symbols(), context=context)
        encoder.symbol_block(range(K))
        assert len(context.snapshot_plans()) == 0
        encoder.symbol(K)
        store = context.snapshot_plans()
        assert ("encode", for_k(K)) in store

    def test_prewarm_matches_lazily_built_keys(self):
        context = CodecContext("planned")
        BlockEncoder(_source_symbols(), context=context).symbol(K)
        lazy = context.snapshot_plans()
        warmed = prewarm_encode_plans([K])
        assert set(warmed.plans) == set(lazy.plans)
        for key in warmed.plans:
            assert np.array_equal(warmed.plans[key].operator, lazy.plans[key].operator)

    def test_preload_counts_neither_hits_nor_misses(self):
        context = CodecContext("planned", preload=prewarm_encode_plans([K]))
        assert context.stats.hits == 0
        assert context.stats.misses == 0
        assert context.cached_plans == 1

    def test_preloaded_context_encodes_with_zero_misses(self):
        source = _source_symbols()
        cold = CodecContext("planned")
        cold_encoder = BlockEncoder(source, context=cold)
        warm = CodecContext("planned", preload=prewarm_encode_plans([K]))
        warm_encoder = BlockEncoder(source, context=warm)
        esis = list(range(K + 4))
        assert np.array_equal(cold_encoder.symbol_block(esis),
                              warm_encoder.symbol_block(esis))
        assert cold.stats.misses == 1
        assert warm.stats.misses == 0
        assert warm.stats.hits == 1

    def test_plan_cache_preload_respects_capacity(self):
        cache = PlanCache(max_entries=1)
        inserted = cache.preload(prewarm_encode_plans([K, K + 1, K + 2]))
        assert inserted == 3
        assert len(cache) == 1
        assert cache.evictions == 2


class TestDecodePrewarm:
    def test_prewarmed_decode_plan_hits_and_decodes(self):
        source = _source_symbols(seed=9)
        encoder = BlockEncoder(source)
        # Lose the first two source symbols; receive two repair symbols.
        esis = tuple(range(2, K)) + (K, K + 1)
        context = CodecContext("planned", preload=prewarm_encode_plans([K]))
        decoder = BlockDecoder(K, SYMBOL_SIZE, context=context)
        for esi in esis:
            decoder.add_symbol(esi, encoder.symbol(esi))
        result = decoder.decode()
        assert result.success
        assert result.source_symbols == source
        assert context.stats.misses == 0
        assert context.stats.hits == 1

    def test_store_reusable_across_contexts(self):
        store = prewarm_encode_plans([K])
        for _ in range(2):
            context = CodecContext("planned", preload=store)
            BlockEncoder(_source_symbols(), context=context)
            assert context.stats.misses == 0
