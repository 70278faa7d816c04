"""Tests for the text rendering of figure and sweep results."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.figure1a import RankFigureResult
from repro.experiments.figure1c import Figure1cResult, IncastPoint
from repro.experiments.metrics import SeriesSummary
from repro.experiments.report import (
    fct_columns,
    format_codec_stats,
    format_fault_stats,
    format_figure1c,
    format_rank_figure,
    format_sweep,
    format_table,
    format_transport_stats,
)
from repro.experiments.sweep import SweepPoint, SweepResult


def _fake_rank_result() -> RankFigureResult:
    result = RankFigureResult(config=ExperimentConfig())
    for label, mean in (("1 Replica RQ", 0.8), ("1 Replica TCP", 0.5)):
        result.series[label] = [(0, mean - 0.1), (1, mean + 0.1)]
        result.summaries[label] = SeriesSummary.from_goodputs(label, [mean - 0.1, mean + 0.1])
    return result


class TestRankFigureFormatting:
    def test_contains_title_and_all_series(self):
        text = format_rank_figure(_fake_rank_result(), "Figure 1a")
        assert text.startswith("Figure 1a")
        assert "1 Replica RQ" in text
        assert "1 Replica TCP" in text

    def test_contains_quantile_columns(self):
        text = format_rank_figure(_fake_rank_result(), "t")
        for column in ("p10 Gbps", "median Gbps", "mean Gbps", "p90 Gbps"):
            assert column in text

    def test_values_rendered_with_three_decimals(self):
        text = format_rank_figure(_fake_rank_result(), "t")
        assert "0.800" in text  # the mean of the RQ series


class TestFigure1cFormatting:
    def test_rows_per_point(self):
        result = Figure1cResult(config=ExperimentConfig())
        result.series["RQ 256KB"] = [
            IncastPoint(num_senders=1, mean_goodput_gbps=0.9, ci95_gbps=0.01, samples=(0.9,)),
            IncastPoint(num_senders=8, mean_goodput_gbps=0.92, ci95_gbps=0.02, samples=(0.92,)),
        ]
        text = format_figure1c(result)
        assert text.count("RQ 256KB") == 2
        assert "+/-0.010" in text
        assert "senders" in text


class TestFormatTable:
    COLUMNS = [("name", lambda item: item[0]), ("value", lambda item: f"{item[1]:.1f}")]

    def test_columns_pad_to_the_widest_cell_and_rule_matches(self):
        text = format_table([("a", 1), ("longer", 22.25)], "Title", self.COLUMNS)
        assert text.splitlines() == [
            "Title",
            "name    value",
            "------  -----",
            "a       1.0  ",
            "longer  22.2 ",
        ]

    def test_no_items_renders_header_and_rule_only(self):
        assert format_table([], "T", self.COLUMNS).splitlines() == ["T", "name  value", "----  -----"]


def _point(series, cell, ratio=None, **stats) -> SweepPoint:
    return SweepPoint(
        series=series, cell=cell, completed=3, offered=4, median_fct_ms=1.5,
        p90_fct_ms=2.0, p99_fct_ms=float("inf"), mean_goodput_gbps=0.25,
        fct_vs_baseline=ratio,
        fault_stats=stats.get("fault_stats"), transport_stats=stats.get("transport_stats"),
    )


def _sweep_result(cells=("fanin-4", "fanin-8", "fanin-15")) -> SweepResult:
    # expansions iterate cells, then protocols -- so `runs` is cell-major
    keys = [(series, cell) for cell in cells for series in ("polyraptor", "tcp")]
    result = SweepResult(runs={key: [] for key in keys}, codec_stats={}, exec_profile=None)
    result.points = {
        (series, cell): _point(
            series, cell, ratio=2.0 if series == "tcp" else None,
            transport_stats={"ecn_marks": len(cell)} if series == "tcp" else None,
            fault_stats={"links_failed": len(cell)},
        )
        for series, cell in keys
    }
    return result


class TestFormatSweep:
    COLUMNS = fct_columns(("cell", lambda point: point.cell), "vs base", p99=True)

    def _tables(self, counters):
        text = format_sweep(_sweep_result(), "Sweep", self.COLUMNS, counters)
        main, counter = text.split("\n\n")
        return main.splitlines(), counter.splitlines()

    def test_rows_are_series_major_in_sweep_order(self):
        main, _ = self._tables("transport_stats")
        assert main[0] == "Sweep"
        assert [line.split()[:2] for line in main[3:]] == [
            ["polyraptor", "fanin-4"], ["polyraptor", "fanin-8"], ["polyraptor", "fanin-15"],
            ["tcp", "fanin-4"], ["tcp", "fanin-8"], ["tcp", "fanin-15"],
        ]

    def test_undefined_quantiles_and_ratios_render_as_dashes(self):
        main, _ = self._tables("transport_stats")
        assert main[1].split("  ")[0] == "protocol" and "p99 FCT ms" in main[1]
        assert main[3].split() == ["polyraptor", "fanin-4", "3/4", "1.500", "2.000", "-", "0.250", "-"]
        assert main[-1].split()[-1] == "2.00x"

    @pytest.mark.parametrize("counters, title", [
        ("transport_stats", "Congestion-reaction counters"),
        ("fault_stats", "Fault counters"),
    ])
    def test_counter_rows_follow_the_main_table_not_the_alphabet(self, counters, title):
        # Sorted labels used to put fanin-15 before fanin-4 under a main
        # table ordered 4, 8, 15.
        main, counter = self._tables(counters)
        assert counter[0] == title
        assert [line.split()[:3] for line in counter[3:]] == [
            [*line.split()[:1], "@", line.split()[1]] for line in main[3:]
        ]

    def test_p99_column_is_optional(self):
        columns = fct_columns(("intensity", lambda point: f"{point.cell:.2f}"), "vs healthy")
        assert [header for header, _ in columns] == [
            "protocol", "intensity", "completed", "median FCT ms", "p90 FCT ms",
            "mean Gbps", "vs healthy",
        ]


class TestCounterTableOrder:
    STATS = {"zeta": {"links_failed": 1, "ecn_marks": 2}, "alpha": None}

    def test_counter_tables_keep_the_callers_order(self):
        for render in (format_fault_stats, format_transport_stats):
            rows = render(self.STATS).splitlines()[3:]
            assert [row.split()[0] for row in rows] == ["zeta", "alpha"]
            assert set(rows[1].split()[1:]) == {"-"}

    def test_codec_table_sorts_its_unordered_series(self):
        rows = format_codec_stats({"zeta": None, "alpha": None}).splitlines()[3:]
        assert [row.split()[0] for row in rows] == ["alpha", "zeta"]
