"""Tests for the exhibit builders (tables, figures, rendering)."""

from __future__ import annotations

import pytest

from repro.analysis import experiments
from repro.analysis.figures import FigureData, FigureSeries, build_figure2
from repro.analysis.report import render_figure
from repro.analysis.tables import (
    TABLE4_PAPER_BYTES,
    build_table1,
    build_table4,
)
from repro.traces.workloads import WORKLOADS
from repro.utils.text import render_table


class TestTable1:
    def test_matches_paper_relative_columns(self):
        """Our recomputation of Table 1's ratios must agree with the
        printed paper values to within rounding."""
        headers, rows = build_table1()
        assert headers[4] == "L2 share"
        for row in rows:
            ours = int(row[4].rstrip("%"))
            paper = int(row[5].rstrip("%"))
            assert abs(ours - paper) <= 1
            ours_np = int(row[6].rstrip("%"))
            paper_np = int(row[7].rstrip("%"))
            assert abs(ours_np - paper_np) <= 1

    def test_l2_share_grows_with_size(self):
        _headers, rows = build_table1()
        shares = [int(row[4].rstrip("%")) for row in rows]
        assert shares == sorted(shares)


class TestTable4:
    def test_rows_cover_all_ij_configs(self):
        _headers, rows = build_table4()
        assert [row[0] for row in rows] == list(TABLE4_PAPER_BYTES)

    def test_exact_rows_match_paper(self):
        _headers, rows = build_table4()
        by_name = {row[0]: row for row in rows}
        # The two rows whose paper values agree with the caption's own
        # 14-bit-counter arithmetic must match exactly.
        assert by_name["IJ-10x4x7"][3] == by_name["IJ-10x4x7"][4] == "7168"
        assert by_name["IJ-8x4x7"][3] == by_name["IJ-8x4x7"][4] == "1792"


class TestFigure2:
    def test_series_per_remote_rate(self):
        data = build_figure2(block_bytes=32)
        assert len(data.series) == 10
        assert data.series[0].label == "R=0%"

    def test_topmost_curve_is_zero_remote(self):
        data = build_figure2(block_bytes=32)
        zero = data.series[0]
        ninety = data.series[-1]
        for key in zero.values:
            assert zero.values[key] >= ninety.values[key]

    def test_average_property(self):
        series = FigureSeries("x", {"a": 0.2, "b": 0.4})
        assert series.average == pytest.approx(0.3)
        assert FigureSeries("empty").average == 0.0


class TestRendering:
    def test_render_figure_includes_avg(self):
        data = FigureData("figX", "demo")
        data.series.append(FigureSeries("cfg", {"wl1": 0.5, "wl2": 0.7}))
        text = render_figure(data)
        assert "AVG" in text
        assert "60.0%" in text

    def test_render_table(self):
        text = render_table(["a"], [["1"]], title="T")
        assert text.startswith("T")

    def test_workloads_order_preserved(self):
        data = FigureData("figX", "demo")
        data.series.append(FigureSeries("c1", {"b": 1.0, "a": 0.0}))
        assert data.workloads() == ["b", "a"]


class TestSimulationBackedTables:
    """Table 2/3 builders over a miniature workload set."""

    @pytest.fixture(autouse=True)
    def shrink_workloads(self, monkeypatch):
        from tests.test_experiments import tiny_spec

        spec = tiny_spec()
        monkeypatch.setitem(WORKLOADS, spec.name, spec)
        # Restrict iteration to the tiny workload only.
        tiny_only = {spec.name: spec}
        monkeypatch.setattr("repro.analysis.tables.WORKLOADS", tiny_only)
        experiments.clear_caches()
        yield
        experiments.clear_caches()

    def test_table2_rows(self):
        from repro.analysis.tables import build_table2

        headers, rows = build_table2()
        assert len(rows) == 1
        assert rows[0][0] == "test-tiny"
        assert headers[0] == "App"

    def test_table3_has_average_row(self):
        from repro.analysis.tables import build_table3

        _headers, rows = build_table3()
        assert rows[-1][0] == "AVERAGE"
        assert len(rows) == 2
