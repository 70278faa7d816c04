"""Tests for the incast congestion-reaction experiment.

The headline contracts (ISSUE acceptance): the incast sweep sharded over
``jobs=N`` is indistinguishable from ``jobs=1`` in every reported number --
per-transfer metrics *and* the new congestion-reaction counters -- and the
marking-off cells are byte-identical to the pre-reaction simulator (every
new feature defaults off; feature-off runs carry no ``transport_stats`` key
in their canonical snapshot at all).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.config import ExperimentConfig, Protocol
from repro.experiments.incast import (
    MARK_OFF,
    MARK_ON,
    TABLE,
    expand_incast_sweep,
    incast_labels,
    reactive_config,
    run_incast,
)
from repro.experiments.report import (
    format_sweep,
    format_transport_stats,
    merge_codec_stats,
    merge_counter_stats,
)
from repro.experiments.runner import run_transfers
from repro.utils.units import KILOBYTE

QUICK = ExperimentConfig(
    fattree_k=4,
    num_foreground_transfers=6,
    object_bytes=48 * KILOBYTE,
    background_fraction=0.0,
    max_sim_time_s=20.0,
)

AXES = dict(fanins=(2, 4), response_bytes=32 * KILOBYTE)


def _point_snapshot(result):
    return {
        key: (
            point.completed,
            point.offered,
            point.median_fct_ms,
            point.p90_fct_ms,
            point.p99_fct_ms,
            point.mean_goodput_gbps,
            point.fct_vs_baseline,
            point.transport_stats,
        )
        for key, point in result.points.items()
    }


class TestLabels:
    def test_sweep_order(self):
        assert incast_labels((4, 8)) == (
            "fanin-4/mark-off", "fanin-4/mark-on",
            "fanin-8/mark-off", "fanin-8/mark-on",
        )

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            expand_incast_sweep(QUICK, (), 1024, (Protocol.TCP,), 1)
        with pytest.raises(ValueError):
            expand_incast_sweep(QUICK, (0,), 1024, (Protocol.TCP,), 1)
        with pytest.raises(ValueError):
            expand_incast_sweep(QUICK, (2,), 0, (Protocol.TCP,), 1)
        with pytest.raises(ValueError, match="fan-in"):
            # k=4 has 16 hosts: at most 15 senders around one aggregator.
            expand_incast_sweep(QUICK, (16,), 1024, (Protocol.TCP,), 1)


class TestSweepExpansion:
    def test_workload_shared_across_cells_and_protocols(self):
        jobs = expand_incast_sweep(QUICK, (3,), 16 * KILOBYTE,
                                   (Protocol.POLYRAPTOR, Protocol.TCP), 1)
        assert len(jobs) == 4  # 1 fan-in x 2 markings x 2 protocols
        transfers = {job.transfers for job in jobs}
        assert len(transfers) == 1  # byte-identical offered traffic everywhere

    def test_marking_rides_inside_the_config(self):
        jobs = expand_incast_sweep(QUICK, (3,), 16 * KILOBYTE, (Protocol.TCP,), 1)
        by_label = {job.key[2]: job for job in jobs}
        off = by_label[f"fanin-3/{MARK_OFF}"].config
        on = by_label[f"fanin-3/{MARK_ON}"].config
        assert off == QUICK  # the historical configuration, untouched
        assert on == replace(QUICK, ecn_enabled=True)

    def test_reactive_config_only_flips_reaction_knobs(self):
        # Marking is the one knob: Polyraptor's pull clock has nothing to flip.
        assert reactive_config(QUICK) == replace(QUICK, ecn_enabled=True)


class TestDeterminism:
    def test_jobs4_byte_identical_to_jobs1(self):
        sequential = run_incast(QUICK, num_seeds=2, jobs=1, **AXES)
        sharded = run_incast(QUICK, num_seeds=2, jobs=4, **AXES)
        assert _point_snapshot(sequential) == _point_snapshot(sharded)
        assert sequential.codec_stats == sharded.codec_stats
        assert sequential.cells == sharded.cells

    def test_mark_on_cells_carry_reaction_counters(self):
        result = run_incast(QUICK, num_seeds=1, jobs=1, **AXES)
        for fanin in AXES["fanins"]:
            off_tcp = result.point(Protocol.TCP, f"fanin-{fanin}/{MARK_OFF}")
            on_tcp = result.point(Protocol.TCP, f"fanin-{fanin}/{MARK_ON}")
            assert off_tcp.transport_stats is None
            assert on_tcp.transport_stats is not None
            # Echoes lag marks only by downstream drops: never more than marks.
            assert 0 <= on_tcp.transport_stats["ecn_echoes"] <= on_tcp.transport_stats["ecn_marks"]
            on_poly = result.point(Protocol.POLYRAPTOR, f"fanin-{fanin}/{MARK_ON}")
            assert set(on_poly.transport_stats) == {"ecn_marks", "gray_detected", "shards"}
        rendered = format_sweep(result, **TABLE)
        assert "mark-on" in rendered and "vs mark-off" in rendered


class TestMarkOffIsLegacy:
    def test_mark_off_cell_equals_direct_legacy_run(self):
        """A sweep's mark-off cell is the pre-reaction simulator, byte-for-byte."""
        jobs = expand_incast_sweep(QUICK, (4,), 32 * KILOBYTE, (Protocol.TCP,), 1)
        off_job = next(job for job in jobs if job.key[2].endswith(MARK_OFF))
        direct = run_transfers(off_job.protocol, off_job.config, list(off_job.transfers))
        # Every reactive feature is off, so the run carries no transport
        # stats and its canonical snapshot has no such key -- the exact
        # shape (and fingerprint) the pre-reaction simulator produced.
        assert direct.transport_stats is None
        assert "transport_stats" not in direct.canonical_dict()

    def test_polyraptor_ignores_marks(self):
        """Marks change no Polyraptor decision: the mark-on cell moves the
        same packets at the same instants as the mark-off cell."""
        jobs = expand_incast_sweep(QUICK, (4,), 32 * KILOBYTE, (Protocol.POLYRAPTOR,), 1)
        off, on = (run_transfers(job.protocol, job.config, list(job.transfers))
                   for job in jobs)
        assert on.transport_stats["ecn_marks"] > 0
        marked, unmarked = on.canonical_dict(), off.canonical_dict()
        for field in ("transfers", "events_processed", "trimmed_packets", "sim_time_s"):
            assert marked[field] == unmarked[field], field

    def test_default_config_runs_have_no_transport_stats(self):
        for protocol in (Protocol.POLYRAPTOR, Protocol.TCP):
            jobs = expand_incast_sweep(QUICK, (2,), 16 * KILOBYTE, (protocol,), 1)
            off_job = jobs[0]
            run = run_transfers(off_job.protocol, off_job.config, list(off_job.transfers))
            assert run.transport_stats is None

    @pytest.mark.parametrize("marking", [True, False], ids=["marking", "no-marking"])
    @pytest.mark.parametrize("gray", [True, False], ids=["gray", "no-gray"])
    def test_polyraptor_stats_appear_iff_marking_or_gray_detection_ran(self, marking, gray):
        off_job = expand_incast_sweep(QUICK, (2,), 16 * KILOBYTE, (Protocol.POLYRAPTOR,), 1)[0]
        config = replace(
            off_job.config,
            ecn_enabled=marking,
            polyraptor=replace(off_job.config.polyraptor, gray_detection=gray),
        )
        stats = run_transfers(off_job.protocol, config, list(off_job.transfers)).transport_stats
        if not (marking or gray):
            assert stats is None
        else:
            assert set(stats) == {"ecn_marks", "gray_detected"}
            assert (stats["ecn_marks"] > 0) == marking

    def test_mark_on_snapshot_includes_transport_stats(self):
        jobs = expand_incast_sweep(QUICK, (4,), 32 * KILOBYTE, (Protocol.TCP,), 1)
        on_job = next(job for job in jobs if job.key[2].endswith(MARK_ON))
        run = run_transfers(on_job.protocol, on_job.config, list(on_job.transfers))
        snapshot = run.canonical_dict()
        assert snapshot["transport_stats"] == run.transport_stats
        assert run.transport_stats["ecn_marks"] >= 0


class TestMergeRoundTrip:
    # merge_counter_stats is the one additive merge behind both the fault
    # counters (resilience, correlated) and the transport counters (incast).
    @pytest.mark.parametrize("one, two, expected", [
        pytest.param(
            {"events_applied": 2, "links_failed": 1, "reroutes": 10},
            {"events_applied": 3, "links_failed": 0, "reroutes": 5},
            {"events_applied": 5, "links_failed": 1, "reroutes": 15, "shards": 2},
            id="fault",
        ),
        pytest.param(
            {"ecn_marks": 3, "ecn_echoes": 5, "gray_detected": 1},
            {"ecn_marks": 2, "ecn_echoes": 1, "gray_detected": 0},
            {"ecn_marks": 5, "ecn_echoes": 6, "gray_detected": 1, "shards": 2},
            id="transport",
        ),
    ])
    def test_counters_sum_and_shards_counted(self, one, two, expected):
        # The None shard (healthy fabric / every reactive feature off)
        # contributes nothing, not even to the shard count.
        assert merge_counter_stats([one, None, two]) == expected

    def test_transport_stats_merge_keeps_unknown_counters(self):
        # The stale-counter trap: a counter added later must survive the
        # sharded merge, or --jobs N diverges from --jobs 1.
        merged = merge_counter_stats([
            {"ecn_marks": 1, "brand_new_counter": 7},
            {"ecn_marks": 1, "brand_new_counter": 2},
        ])
        assert merged["brand_new_counter"] == 9

    def test_transport_stats_merge_none_when_all_absent(self):
        assert merge_counter_stats([None, None]) is None
        assert merge_counter_stats([]) is None

    def test_codec_stats_merge_keeps_unknown_counters(self):
        base = {
            "blocks_encoded": 1, "blocks_decoded": 1,
            "plan_cache": {"hits": 1, "misses": 1},
            "decode_plan_cache": {"hits": 0, "misses": 0},
            "brand_new_counter": 3,
        }
        merged = merge_codec_stats([base, dict(base)])
        assert merged["brand_new_counter"] == 6
        assert merged["blocks_encoded"] == 2
        assert merged["shards"] == 2

    def test_merged_equals_single_run_shape(self):
        single = {"ecn_marks": 4, "ecn_echoes": 4, "ecn_reactions": 2, "gray_detected": 0}
        merged = merge_counter_stats([single])
        round_tripped = merge_counter_stats([merged])
        # Idempotent apart from the shards bookkeeping.
        assert {k: v for k, v in round_tripped.items() if k != "shards"} == single

    def test_format_transport_stats_renders_none_rows(self):
        rendered = format_transport_stats({"off": None, "on": {"ecn_marks": 2}})
        assert "off" in rendered and "-" in rendered and "2" in rendered
