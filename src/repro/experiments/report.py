"""Plain-text rendering of experiment results.

The benchmark harness prints these tables so that a run of
``pytest benchmarks/ --benchmark-only`` reproduces, in text form, the same
rows/series the paper's figures report.
"""

from __future__ import annotations

import fnmatch
import math
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - type hints only; avoids circular imports
    from repro.experiments.ablations import AblationPoint, OverheadPoint
    from repro.experiments.figure1a import RankFigureResult
    from repro.experiments.figure1c import Figure1cResult
    from repro.experiments.sweep import SweepPoint, SweepResult

#: One table column: its header and how to render an item's cell in it.
Column = tuple[str, Callable[[Any], str]]


def _fct_cell(value: float) -> str:
    """Format an FCT quantile; cells with no completed transfers (infinite
    quantiles) render as ``-``, like the undefined degradation ratio."""
    return f"{value:.3f}" if math.isfinite(value) else "-"


def format_table(items: Iterable, title: str, columns: Sequence[Column]) -> str:
    """Render ``title`` over one row per item, one column per ``(header, render)``.

    The renderer every table goes through: a scenario module owns a column
    list, never padding or rules.
    """
    headers = [header for header, _ in columns]
    rows = [[render(item) for _, render in columns] for item in items]
    widths = [max(map(len, cells)) for cells in zip(headers, *rows)]
    lines = [headers, ["-" * width for width in widths], *rows]
    return "\n".join(
        [title]
        + ["  ".join(cell.ljust(width) for cell, width in zip(line, widths)) for line in lines]
    )


def _stats_table(
    stats_by_label: Mapping[str, Optional[dict]], title: str, columns: Sequence[Column]
) -> str:
    """One row per series in mapping order, ``columns`` rendering its stats dict.

    A series without stats (``None``) renders as a row of ``-`` so a table
    always lists every series of an experiment.
    """
    def dashed(render: Callable[[dict], str]) -> Callable[[tuple], str]:
        return lambda item: render(item[1]) if item[1] else "-"

    labelled = [("series", lambda item: item[0])]
    labelled += [(header, dashed(render)) for header, render in columns]
    return format_table(stats_by_label.items(), title, labelled)


def format_rank_figure(result: RankFigureResult, title: str) -> str:
    """Render a Figure 1a/1b result: one row per series with goodput quantiles."""
    columns = [
        ("series", lambda summary: summary.label),
        ("sessions", lambda summary: str(summary.count)),
        ("p10 Gbps", lambda summary: f"{summary.p10_gbps:.3f}"),
        ("median Gbps", lambda summary: f"{summary.median_gbps:.3f}"),
        ("mean Gbps", lambda summary: f"{summary.mean_gbps:.3f}"),
        ("p90 Gbps", lambda summary: f"{summary.p90_gbps:.3f}"),
    ]
    summaries = [result.summaries[label] for label in sorted(result.summaries)]
    return format_table(summaries, title, columns)


def format_figure1c(result: Figure1cResult, title: str = "Figure 1c (Incast)") -> str:
    """Render Figure 1c: one row per (series, sender count) with mean +/- CI."""
    columns = [
        ("series", lambda row: row[0]),
        ("senders", lambda row: str(row[1].num_senders)),
        ("goodput Gbps", lambda row: f"{row[1].mean_goodput_gbps:.3f}"),
        ("95% CI", lambda row: f"+/-{row[1].ci95_gbps:.3f}"),
    ]
    rows = [(label, point) for label in sorted(result.series) for point in result.series[label]]
    return format_table(rows, title, columns)


def format_ablation(points: Sequence[AblationPoint], title: str) -> str:
    """Render an ablation series."""
    columns = [
        ("configuration", lambda point: point.label),
        ("goodput Gbps", lambda point: f"{point.goodput_gbps:.3f}"),
        ("trimmed", lambda point: str(point.trimmed_packets)),
        ("dropped", lambda point: str(point.dropped_packets)),
    ]
    return format_table(points, title, columns)


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

    Block and basis-lookup counters (overall and decode-side) are summed and
    hit rates recomputed from the totals, so a merged dict has the same
    shape as a single run's ``RunResult.codec_stats``; a ``shards`` field
    records how many runs contributed.  Runs without codec work (``None``,
    e.g. TCP baselines) are skipped; returns ``None`` when no run carried
    stats.
    """
    present = [stats for stats in stats_list if stats]
    if not present:
        return None
    merged = {
        "blocks_encoded": sum(stats.get("blocks_encoded", 0) for stats in present),
        "blocks_decoded": sum(stats.get("blocks_decoded", 0) for stats in present),
        "plan_cache": _merge_cache_counters(
            [stats.get("plan_cache", {}) for stats in present], "rq_plan_cache"
        ),
        "decode_plan_cache": _merge_cache_counters(
            [stats.get("decode_plan_cache", {}) for stats in present], "rq_decode_plan_cache"
        ),
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
    title: str = "RQ codec blocks",
) -> str:
    """Render per-run codec statistics: blocks encoded and decoded.

    Runs without codec work (TCP baselines) render as ``-`` rows, so the
    table always lists every series of an experiment.
    """
    columns = [
        ("blocks enc", lambda stats: str(stats.get("blocks_encoded", 0))),
        ("blocks dec", lambda stats: str(stats.get("blocks_decoded", 0))),
    ]
    # Sorted by label like the figure tables it is printed under; the
    # counter tables instead follow the sweep order of their FCT table.
    return _stats_table(dict(sorted(stats_by_label.items())), title, columns)


def format_exec_profile(profile: Optional[dict], title: str = "Executor profile") -> str:
    """Render one sweep's executor accounting as a two-row table.

    Takes the ``exec_profile`` dict a result object carries (an
    :class:`~repro.experiments.parallel.ExecutorProfile` snapshot) and shows
    where the sweep's wall clock went and how many bytes crossed the process
    boundary.  ``None`` (no profile recorded)
    renders as a one-line note so callers can print unconditionally.
    """
    if not profile:
        return f"{title}\n  (no executor profile recorded)"
    def ms(key: str) -> Callable[[dict], str]:
        return lambda profile: f"{profile.get(key, 0.0) * 1e3:.1f}"

    columns = [
        ("transport", lambda profile: str(profile.get("transport", "?"))),
        ("workers", lambda profile: str(profile.get("workers", 1))),
        ("reused", lambda profile: "yes" if profile.get("pool_reused") else "no"),
        ("jobs", lambda profile: str(profile.get("jobs_total", 0))),
        ("chunk", lambda profile: str(profile.get("chunk_size", 1))),
        ("pipe B", lambda profile: str(profile.get("bytes_shipped", 0))),
        ("wall s", lambda profile: f"{profile.get('wall_s', 0.0):.2f}"),
        ("run s", lambda profile: f"{profile.get('run_s', 0.0):.2f}"),
        ("spawn ms", ms("pool_spawn_s")),
        ("serialize ms", ms("serialize_s")),
        ("merge ms", ms("merge_s")),
    ]
    return format_table([profile], title, columns)


def merge_counter_stats(stats_list: Sequence[Optional[dict]]) -> Optional[dict]:
    """Aggregate per-run additive counters across the shards of a sweep.

    Serves both the fault counters (event counts, fault-caused packet drops,
    rerouted table entries, per-builder ``cause_*``) and the
    congestion-reaction counters (TCP's ECN marks, echoes and sender
    reactions).  Every one is additive, so
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

    Rows follow the mapping's own order -- the sweep order of the points the
    counters belong to.  Series that ran on a healthy fabric (``None`` stats,
    e.g. the intensity-0 baselines) render as ``-`` rows so every row of an
    experiment is listed.
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

    def total(*keys: str) -> Callable[[Mapping], str]:
        return lambda stats: str(sum(stats.get(key, 0) for key in keys))

    present = [stats for stats in stats_by_label.values() if stats]
    columns = [
        ("links down", total("links_failed")),
        ("degraded", total("links_degraded")),
        ("lossy", total("links_lossy")),
        ("switch down", total("switches_failed")),
        ("reroutes", total("reroutes")),
    ]
    if any("recomputes_requested" in stats for stats in present):
        columns.append((
            "installs",
            lambda stats: f"{stats.get('route_installs', 0)}/{stats.get('recomputes_requested', 0)}",
        ))
    columns += [
        ("pkts dead-path", total("packets_dropped_link_down", "packets_dropped_switch_down")),
        ("pkts rand-loss", total("packets_dropped_random_loss")),
    ]
    if any(key.startswith("cause_") for stats in present for key in stats):
        columns.append(("causes", cause_summary))
    return _stats_table(stats_by_label, title, columns)


def format_transport_stats(
    stats_by_label: Mapping[str, Optional[dict]],
    title: str = "Congestion-reaction counters",
) -> str:
    """Render per-series ECN counters.

    Rows follow the mapping's own order (sweep order).  Series that ran with
    marking off (``None`` stats: the marking-off baseline cells, and every
    Polyraptor cell, whose trimming fabric never marks) render as ``-`` rows
    so the table always lists every series of an experiment.  A counter
    missing from a series' stats renders as ``-`` too.
    """
    def counter(key: str) -> Callable[[Mapping], str]:
        return lambda stats: str(stats[key]) if key in stats else "-"

    columns = [
        ("ecn marks", counter("ecn_marks")),
        ("echoes", counter("ecn_echoes")),
        ("reactions", counter("ecn_reactions")),
    ]
    return _stats_table(stats_by_label, title, columns)


def fct_columns(cell: Column, ratio_header: str, p99: bool = False) -> list[Column]:
    """The columns of an FCT sweep's table (resilience, correlated, incast).

    ``cell`` is the scenario's own column for the varied axis; the ratio
    against the baseline cell is headed ``ratio_header`` and renders ``-``
    when undefined, like an FCT quantile of a cell that completed nothing.
    ``p99`` adds the tail quantile (the incast pathology lives there).
    """
    def ratio(point: SweepPoint) -> str:
        ratio = point.fct_vs_baseline
        return f"{ratio:.2f}x" if ratio is not None else "-"

    quantiles = [
        ("median FCT ms", lambda point: _fct_cell(point.median_fct_ms)),
        ("p90 FCT ms", lambda point: _fct_cell(point.p90_fct_ms)),
    ]
    if p99:
        quantiles.append(("p99 FCT ms", lambda point: _fct_cell(point.p99_fct_ms)))
    return [
        ("protocol", lambda point: point.series),
        cell,
        ("completed", lambda point: f"{point.completed}/{point.offered}"),
        *quantiles,
        ("mean Gbps", lambda point: f"{point.mean_goodput_gbps:.3f}"),
        (ratio_header, ratio),
    ]


#: The counter table that follows an FCT table, by the point field it reads.
_COUNTER_TABLES = {
    "fault_stats": format_fault_stats,
    "transport_stats": format_transport_stats,
}


def format_sweep(
    result: SweepResult, title: str, columns: Sequence[Column], counters: str
) -> str:
    """Render an FCT sweep: the degradation table plus its counter table.

    One row per (series, cell) the sweep ran -- series by series, cells in
    sweep order -- through ``columns``, whose first two name the series and
    the cell.
    ``counters`` is the point field the second table reads: ``"fault_stats"``
    (events applied, drops, reroutes, per-builder ``causes`` and the
    requested-vs-installed recompute counters that expose control-plane lag)
    or ``"transport_stats"`` (ECN counters).  Its rows
    are labelled ``"<series> @ <cell>"`` as the first two columns render
    them, in the same order as the rows above.
    """
    points = [
        result.points[(series, cell)]
        for series in result.series
        for cell in result.cells
        if (series, cell) in result.points
    ]
    (_, series_of), (_, cell_of) = columns[:2]
    stats = {
        f"{series_of(point)} @ {cell_of(point)}": getattr(point, counters)
        for point in points
    }
    table = format_table(points, title, columns)
    return f"{table}\n\n{_COUNTER_TABLES[counters](stats)}"


def format_overhead(points: Sequence[OverheadPoint], title: str = "RQ decode overhead") -> str:
    """Render the RQ overhead ablation."""
    columns = [
        ("overhead symbols", lambda point: str(point.overhead)),
        ("trials", lambda point: str(point.trials)),
        ("failures", lambda point: str(point.failures)),
        ("failure rate", lambda point: f"{point.failure_rate:.3f}"),
    ]
    return format_table(points, title, columns)


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
