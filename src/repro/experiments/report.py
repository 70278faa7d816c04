"""Plain-text rendering of experiment results.

The benchmark harness prints these tables so that a run of
``pytest benchmarks/ --benchmark-only`` reproduces, in text form, the same
rows/series the paper's figures report.
"""

from __future__ import annotations

import fnmatch
import math
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - type hints only; avoids circular imports
    from repro.experiments.ablations import AblationPoint, OverheadPoint
    from repro.experiments.correlated import CorrelatedResult
    from repro.experiments.figure1a import Figure1aResult
    from repro.experiments.figure1b import Figure1bResult
    from repro.experiments.figure1c import Figure1cResult
    from repro.experiments.incast import IncastResult
    from repro.experiments.resilience import ResilienceResult


def _fct_cell(value: float) -> str:
    """Format an FCT quantile; cells with no completed transfers (infinite
    quantiles) render as ``-``, like the undefined degradation ratio."""
    return f"{value:.3f}" if math.isfinite(value) else "-"


def _format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_rank_figure(result: Figure1aResult | Figure1bResult, title: str) -> str:
    """Render a Figure 1a/1b result: one row per series with goodput quantiles."""
    rows = []
    for label in sorted(result.summaries):
        summary = result.summaries[label]
        rows.append(
            [
                label,
                str(summary.count),
                f"{summary.p10_gbps:.3f}",
                f"{summary.median_gbps:.3f}",
                f"{summary.mean_gbps:.3f}",
                f"{summary.p90_gbps:.3f}",
            ]
        )
    table = _format_table(
        ["series", "sessions", "p10 Gbps", "median Gbps", "mean Gbps", "p90 Gbps"], rows
    )
    return f"{title}\n{table}"


def format_figure1c(result: Figure1cResult, title: str = "Figure 1c (Incast)") -> str:
    """Render Figure 1c: one row per (series, sender count) with mean +/- CI."""
    rows = []
    for label in sorted(result.series):
        for point in result.series[label]:
            rows.append(
                [
                    label,
                    str(point.num_senders),
                    f"{point.mean_goodput_gbps:.3f}",
                    f"+/-{point.ci95_gbps:.3f}",
                ]
            )
    table = _format_table(["series", "senders", "goodput Gbps", "95% CI"], rows)
    return f"{title}\n{table}"


def format_ablation(points: Sequence[AblationPoint], title: str) -> str:
    """Render an ablation series."""
    rows = [
        [point.label, f"{point.goodput_gbps:.3f}", str(point.trimmed_packets), str(point.dropped_packets)]
        for point in points
    ]
    table = _format_table(["configuration", "goodput Gbps", "trimmed", "dropped"], rows)
    return f"{title}\n{table}"


def _merge_cache_counters(caches: Sequence[Mapping], name: str) -> dict:
    """Sum hit/miss/eviction counters and recompute the rate from the totals."""
    hits = sum(cache.get("hits", 0) for cache in caches)
    misses = sum(cache.get("misses", 0) for cache in caches)
    lookups = hits + misses
    return {
        "name": name,
        "hits": hits,
        "misses": misses,
        "evictions": sum(cache.get("evictions", 0) for cache in caches),
        "hit_rate": hits / lookups if lookups else 0.0,
    }


def merge_codec_stats(stats_list: Sequence[Optional[dict]]) -> Optional[dict]:
    """Aggregate per-run codec statistics across the shards of a sweep.

    Block and plan-cache counters (overall and decode-side) are summed and
    hit rates recomputed from the totals, so a merged dict has the same
    shape as a single run's ``RunResult.codec_stats``; a ``shards`` field
    records how many runs contributed.  ``backend`` and ``kernel`` join the
    distinct names seen with ``+`` (shards normally agree).
    ``cached_plans`` is the *maximum* across shards (each shard holds its
    own cache, typically seeded with the same pre-warmed plans, so summing
    would double-count).  Runs without codec work (``None``, e.g. TCP
    baselines) are skipped; returns ``None`` when no run carried stats.
    """
    present = [stats for stats in stats_list if stats]
    if not present:
        return None
    backends = sorted({str(stats.get("backend", "?")) for stats in present})
    kernels = sorted({str(stats.get("kernel", "?")) for stats in present})
    merged = {
        "backend": "+".join(backends),
        "kernel": "+".join(kernels),
        "canonical_decode_plans": all(
            stats.get("canonical_decode_plans", True) for stats in present
        ),
        "blocks_encoded": sum(stats.get("blocks_encoded", 0) for stats in present),
        "blocks_decoded": sum(stats.get("blocks_decoded", 0) for stats in present),
        "plan_cache": _merge_cache_counters(
            [stats.get("plan_cache", {}) for stats in present], "rq_plan_cache"
        ),
        "decode_plan_cache": _merge_cache_counters(
            [stats.get("decode_plan_cache", {}) for stats in present],
            "rq_decode_plan_cache",
        ),
        "decode_plan_retries": sum(
            stats.get("decode_plan_retries", 0) for stats in present
        ),
        "cached_plans": max(stats.get("cached_plans", 0) for stats in present),
        "shards": len(present),
    }
    # Any counter this merger does not know by name is summed generically, so
    # a newly added codec counter survives a sharded merge instead of being
    # silently dropped (which would make --jobs N diverge from --jobs 1).
    known = set(merged)
    extra_keys = sorted({key for stats in present for key in stats} - known)
    for key in extra_keys:
        values = [stats.get(key, 0) for stats in present]
        if all(
            isinstance(value, (int, float)) and not isinstance(value, bool)
            for value in values
        ):
            merged[key] = sum(values)
    return merged


def format_codec_stats(
    stats_by_label: Mapping[str, Optional[dict]],
    title: str = "RQ codec backend / plan cache",
) -> str:
    """Render per-run codec statistics (backend, kernel, plan-cache counters).

    The ``dec hits`` / ``dec rate`` columns report the decode-side subset of
    the plan cache -- the counters canonical decode-plan keys are designed
    to improve under loss.  Runs without codec work (TCP baselines) render
    as ``-`` rows, so the table always lists every series of an experiment.
    """
    rows = []
    for label in sorted(stats_by_label):
        stats = stats_by_label[label]
        if not stats:
            rows.append([label] + ["-"] * 9)
            continue
        cache = stats.get("plan_cache", {})
        decode_cache = stats.get("decode_plan_cache", {})
        rows.append(
            [
                label,
                str(stats.get("backend", "?")),
                str(stats.get("kernel", "?")),
                str(stats.get("blocks_encoded", 0)),
                str(stats.get("blocks_decoded", 0)),
                str(cache.get("hits", 0)),
                str(cache.get("misses", 0)),
                f"{cache.get('hit_rate', 0.0):.3f}",
                str(decode_cache.get("hits", 0)),
                f"{decode_cache.get('hit_rate', 0.0):.3f}",
            ]
        )
    table = _format_table(
        [
            "series",
            "backend",
            "kernel",
            "blocks enc",
            "blocks dec",
            "plan hits",
            "plan misses",
            "hit rate",
            "dec hits",
            "dec rate",
        ],
        rows,
    )
    return f"{title}\n{table}"


def format_exec_profile(profile: Optional[dict], title: str = "Executor profile") -> str:
    """Render one sweep's executor accounting as a two-row table.

    Takes the ``exec_profile`` dict a result object carries (an
    :class:`~repro.experiments.parallel.ExecutorProfile` snapshot) and shows
    where the sweep's wall clock went and how many bytes crossed the process
    boundary by pipe vs shared memory.  ``None`` (no profile recorded)
    renders as a one-line note so callers can print unconditionally.
    """
    if not profile:
        return f"{title}\n  (no executor profile recorded)"
    def _ms(key: str) -> str:
        return f"{profile.get(key, 0.0) * 1e3:.1f}"
    rows = [
        [
            str(profile.get("transport", "?")),
            str(profile.get("workers", 1)),
            "yes" if profile.get("pool_reused") else "no",
            str(profile.get("jobs_total", 0)),
            str(profile.get("chunk_size", 1)),
            str(profile.get("bytes_shipped", 0)),
            str(profile.get("shm_bytes", 0)),
            f"{profile.get('wall_s', 0.0):.2f}",
            f"{profile.get('run_s', 0.0):.2f}",
            _ms("prewarm_s"),
            _ms("pool_spawn_s"),
            _ms("plans_ship_s"),
            _ms("serialize_s"),
            _ms("merge_s"),
        ]
    ]
    table = _format_table(
        [
            "transport",
            "workers",
            "reused",
            "jobs",
            "chunk",
            "pipe B",
            "shm B",
            "wall s",
            "run s",
            "prewarm ms",
            "spawn ms",
            "plans ms",
            "serialize ms",
            "merge ms",
        ],
        rows,
    )
    return f"{title}\n{table}"


def merge_counter_stats(stats_list: Sequence[Optional[dict]]) -> Optional[dict]:
    """Aggregate per-run additive counters across the shards of a sweep.

    Serves both the fault counters (event counts, fault-caused packet drops,
    rerouted table entries, per-builder ``cause_*``) and the
    congestion-reaction counters (ECN marks, CE receipts, echoes, TFRC rate
    updates, gray detections, sender reactions).  Every one is additive, so
    shards simply sum -- generically over whatever keys are present, so newly
    added counters survive merging; a ``shards`` field records how many runs
    contributed.  Runs that kept no counters (``None``: a healthy fabric,
    every reactive feature off) are skipped; returns ``None`` when no run
    carried stats.
    """
    present = [stats for stats in stats_list if stats]
    if not present:
        return None
    keys = sorted({key for stats in present for key in stats})
    merged = {key: sum(stats.get(key, 0) for stats in present) for key in keys}
    merged["shards"] = len(present)
    return merged


def format_fault_stats(
    stats_by_label: Mapping[str, Optional[dict]],
    title: str = "Fault counters",
) -> str:
    """Render per-series fault counters (events applied, drops, reroutes).

    Series that ran on a healthy fabric (``None`` stats, e.g. the intensity-0
    baselines) render as ``-`` rows so every row of an experiment is listed.
    When any series carries routing-convergence accounting an ``installs``
    column shows ``route_installs/recomputes_requested`` -- under
    control-plane lag the two differ, exposing installs that were still
    pending (or superseded) when the run ended.  When any series carries
    per-builder cause counters (``cause_srlg``, ``cause_gray``, ...) an
    extra ``causes`` column attributes the applied events to their failure
    models.
    """
    def cause_summary(stats: Mapping) -> str:
        parts = [
            f"{key[len('cause_'):]}:{stats[key]}"
            for key in sorted(stats)
            if key.startswith("cause_")
        ]
        return ",".join(parts) if parts else "-"

    present = [stats for stats in stats_by_label.values() if stats]
    has_installs = any("recomputes_requested" in stats for stats in present)
    has_causes = any(
        any(key.startswith("cause_") for key in stats) for stats in present
    )
    width = 7 + has_installs + has_causes
    rows = []
    for label in sorted(stats_by_label):
        stats = stats_by_label[label]
        if not stats:
            rows.append([label] + ["-"] * width)
            continue
        row = [
            label,
            str(stats.get("links_failed", 0)),
            str(stats.get("links_degraded", 0)),
            str(stats.get("links_lossy", 0)),
            str(stats.get("switches_failed", 0)),
            str(stats.get("reroutes", 0)),
        ]
        if has_installs:
            row.append(
                f"{stats.get('route_installs', 0)}/{stats.get('recomputes_requested', 0)}"
            )
        row += [
            str(
                stats.get("packets_dropped_link_down", 0)
                + stats.get("packets_dropped_switch_down", 0)
            ),
            str(stats.get("packets_dropped_random_loss", 0)),
        ]
        if has_causes:
            row.append(cause_summary(stats))
        rows.append(row)
    headers = [
        "series",
        "links down",
        "degraded",
        "lossy",
        "switch down",
        "reroutes",
    ]
    if has_installs:
        headers.append("installs")
    headers += [
        "pkts dead-path",
        "pkts rand-loss",
    ]
    if has_causes:
        headers.append("causes")
    table = _format_table(headers, rows)
    return f"{title}\n{table}"


def format_transport_stats(
    stats_by_label: Mapping[str, Optional[dict]],
    title: str = "Congestion-reaction counters",
) -> str:
    """Render per-series ECN/TFRC/gray-detection counters.

    Series that ran with every reactive feature off (``None`` stats, e.g.
    the marking-off baseline cells) render as ``-`` rows so the table always
    lists every series of an experiment.  Counters a protocol does not keep
    (TCP has no TFRC rate updates; Polyraptor has no ECE echoes) render as
    ``-`` too.
    """
    columns = [
        ("ecn marks", "ecn_marks"),
        ("ce recv", "ce_received"),
        ("echoes", "ecn_echoes"),
        ("reactions", "ecn_reactions"),
        ("rate updates", "rate_updates"),
        ("gray", "gray_detected"),
    ]
    rows = []
    for label in sorted(stats_by_label):
        stats = stats_by_label[label]
        if not stats:
            rows.append([label] + ["-"] * len(columns))
            continue
        rows.append(
            [label]
            + [str(stats[key]) if key in stats else "-" for _, key in columns]
        )
    table = _format_table(["series"] + [header for header, _ in columns], rows)
    return f"{title}\n{table}"


def format_incast(
    result: IncastResult,
    title: str = "Incast -- fan-in sweep with marking/reaction on vs off",
) -> str:
    """Render the incast sweep: FCT table plus congestion-reaction counters.

    One row per (protocol, cell) in sweep order -- each fan-in with marking
    off then on -- with completion, FCT quantiles (p99 included: the incast
    pathology lives in the tail) and the FCT ratio of each marking-on cell
    against the same protocol and fan-in with marking off.
    """
    rows = []
    transport_stats: dict[str, Optional[dict]] = {}
    protocols = sorted({protocol for protocol, _ in result.points})
    for protocol_value in protocols:
        for label in result.labels:
            point = result.points[(protocol_value, label)]
            rows.append(
                [
                    protocol_value,
                    label,
                    f"{point.completed}/{point.offered}",
                    _fct_cell(point.median_fct_ms),
                    _fct_cell(point.p90_fct_ms),
                    _fct_cell(point.p99_fct_ms),
                    f"{point.mean_goodput_gbps:.3f}",
                    f"{point.fct_vs_unmarked:.2f}x" if point.fct_vs_unmarked is not None else "-",
                ]
            )
            transport_stats[f"{protocol_value} @ {label}"] = point.transport_stats
    table = _format_table(
        [
            "protocol",
            "cell",
            "completed",
            "median FCT ms",
            "p90 FCT ms",
            "p99 FCT ms",
            "mean Gbps",
            "vs mark-off",
        ],
        rows,
    )
    return f"{title}\n{table}\n\n{format_transport_stats(transport_stats)}"


def format_resilience(
    result: ResilienceResult,
    title: str = "Resilience -- FCT degradation under injected faults",
) -> str:
    """Render the resilience sweep: degradation table plus fault counters.

    One row per (protocol, intensity) with completion, FCT quantiles and the
    FCT ratio against the same protocol's healthy (intensity 0) baseline,
    followed by the per-cell fault counter table.
    """
    rows = []
    fault_stats: dict[str, Optional[dict]] = {}
    for (protocol_value, intensity), point in sorted(result.points.items()):
        rows.append(
            [
                protocol_value,
                f"{intensity:.2f}",
                f"{point.completed}/{point.offered}",
                _fct_cell(point.median_fct_ms),
                _fct_cell(point.p90_fct_ms),
                f"{point.mean_goodput_gbps:.3f}",
                f"{point.fct_vs_healthy:.2f}x" if point.fct_vs_healthy is not None else "-",
            ]
        )
        fault_stats[f"{protocol_value} @ {intensity:.2f}"] = point.fault_stats
    table = _format_table(
        [
            "protocol",
            "intensity",
            "completed",
            "median FCT ms",
            "p90 FCT ms",
            "mean Gbps",
            "vs healthy",
        ],
        rows,
    )
    return f"{title}\n{table}\n\n{format_fault_stats(fault_stats)}"


def format_correlated(
    result: CorrelatedResult,
    title: str = "Correlated & gray failures -- FCT degradation with convergence lag",
) -> str:
    """Render the correlated sweep: degradation table plus fault counters.

    One row per (protocol, cell) in sweep order -- healthy baseline, SRLG
    sizes, rack power, gray-loss rates, convergence delays -- with
    completion, FCT quantiles and the ratio against the same protocol's
    healthy cell, followed by the fault counter table (including the
    per-builder ``causes`` attribution and the requested-vs-installed
    recompute counters that expose control-plane lag).
    """
    rows = []
    fault_stats: dict[str, Optional[dict]] = {}
    protocols = sorted({protocol for protocol, _ in result.points})
    for protocol_value in protocols:
        for label in result.labels:
            point = result.points[(protocol_value, label)]
            rows.append(
                [
                    protocol_value,
                    label,
                    f"{point.completed}/{point.offered}",
                    _fct_cell(point.median_fct_ms),
                    _fct_cell(point.p90_fct_ms),
                    f"{point.mean_goodput_gbps:.3f}",
                    f"{point.fct_vs_healthy:.2f}x" if point.fct_vs_healthy is not None else "-",
                ]
            )
            fault_stats[f"{protocol_value} @ {label}"] = point.fault_stats
    table = _format_table(
        [
            "protocol",
            "cell",
            "completed",
            "median FCT ms",
            "p90 FCT ms",
            "mean Gbps",
            "vs healthy",
        ],
        rows,
    )
    return f"{title}\n{table}\n\n{format_fault_stats(fault_stats)}"


def format_overhead(points: Sequence[OverheadPoint], title: str = "RQ decode overhead") -> str:
    """Render the RQ overhead ablation."""
    rows = [
        [str(point.overhead), str(point.trials), str(point.failures), f"{point.failure_rate:.3f}"]
        for point in points
    ]
    table = _format_table(["overhead symbols", "trials", "failures", "failure rate"], rows)
    return f"{title}\n{table}"


# Telemetry rendering ----------------------------------------------------------------

#: ASCII intensity ramp for sparklines (space = zero/minimum).  ASCII rather
#: than unicode block elements so the output survives every terminal and CI
#: log encoding.
SPARK_CHARS = " .:-=+*#%@"


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Render a value series as a fixed-width ASCII intensity line.

    The series is resampled to ``width`` buckets taking each bucket's
    *maximum* (peaks -- the thing queue-depth timelines exist to show --
    survive downsampling), then mapped onto :data:`SPARK_CHARS` scaled to
    the series' own min/max.  A constant series renders at mid-intensity;
    an empty one as ``width`` spaces.
    """
    if width < 1:
        raise ValueError(f"width must be at least 1, got {width}")
    if not values:
        return " " * width
    buckets: list[float] = []
    count = len(values)
    for index in range(min(width, count)):
        start = index * count // min(width, count)
        stop = max(start + 1, (index + 1) * count // min(width, count))
        buckets.append(max(values[start:stop]))
    low = min(buckets)
    high = max(buckets)
    if high == low:
        line = SPARK_CHARS[len(SPARK_CHARS) // 2] * len(buckets)
        return line.ljust(width)
    top = len(SPARK_CHARS) - 1
    line = "".join(
        SPARK_CHARS[round((value - low) / (high - low) * top)] for value in buckets
    )
    return line.ljust(width)


def format_trace(
    telemetry: Mapping,
    series: Optional[str] = None,
    width: int = 60,
    limit: int = 20,
) -> str:
    """Render a recorded telemetry file (``repro trace``) as text timelines.

    ``telemetry`` is the dict :func:`repro.obs.read_telemetry_jsonl`
    returns.  For each recorded run a header line (key, label, tick count)
    is followed by up to ``limit`` of its series -- optionally filtered by
    the ``series`` glob (``fnmatch`` against the series name) -- each as
    ``name  last/max  |sparkline|``.  Series are listed in recorded (sorted
    name) order; a trailing note counts any suppressed by ``limit``.
    """
    lines: list[str] = []
    by_run: dict[tuple, list[dict]] = {}
    for entry in telemetry.get("series", []):
        by_run.setdefault((entry["label"], _key_of(entry)), []).append(entry)
    for run in telemetry.get("runs", []):
        run_id = (run["label"], _key_of(run))
        if lines:
            lines.append("")
        lines.append(
            f"run key={run['key']!r} label={run['label']!r} ticks={run.get('ticks', 0)}"
        )
        entries = by_run.get(run_id, [])
        if series is not None:
            entries = [
                entry for entry in entries if fnmatch.fnmatch(entry["name"], series)
            ]
        if not entries:
            lines.append("  (no matching series)")
            continue
        name_width = max(len(entry["name"]) for entry in entries[:limit])
        for entry in entries[:limit]:
            values = entry["v"]
            last = values[-1] if values else 0.0
            peak = max(values) if values else 0.0
            dropped = f"  dropped={entry['dropped']}" if entry.get("dropped") else ""
            lines.append(
                f"  {entry['name'].ljust(name_width)}  "
                f"last={last:<12.6g} max={peak:<12.6g} "
                f"|{sparkline(values, width)}|{dropped}"
            )
        if len(entries) > limit:
            lines.append(f"  ... {len(entries) - limit} more series (raise --limit)")
    if not lines:
        return "(no runs recorded)"
    return "\n".join(lines)


def _key_of(entry: Mapping) -> tuple:
    """A hashable run identity from a JSON-decoded key (lists become tuples)."""
    key = entry.get("key")
    if isinstance(key, list):
        return tuple(key)
    return (key,)
