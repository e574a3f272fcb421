"""Tests for the text-table rendering helpers."""

import pytest

from repro.model.framework.tables import format_value, render_breakdown, render_table


class TestFormatValue:
    def test_none(self):
        assert format_value(None) == "-"

    def test_bool(self):
        assert format_value(True) == "yes"
        assert format_value(False) == "no"

    def test_small_float_scientific(self):
        assert "e" in format_value(1e-6)

    def test_large_float_scientific(self):
        assert "e" in format_value(123456.0)

    def test_plain_float(self):
        assert format_value(3.14159, precision=3) == "3.14"

    def test_zero(self):
        assert format_value(0.0) == "0"

    def test_string_passthrough(self):
        assert format_value("rhodo") == "rhodo"


class TestRenderTable:
    def test_alignment_and_header(self):
        out = render_table(["name", "value"], [["lj", 1.5], ["rhodo", 2.0]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "-+-" in lines[1]
        assert len(lines) == 4
        # Columns align: every row has the separator at the same offset.
        sep_positions = {line.index("|") for line in (lines[0], *lines[2:])}
        assert len(sep_positions) == 1

    def test_title_prepended(self):
        out = render_table(["a"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])


class TestRenderBreakdown:
    def test_sorted_by_share(self):
        out = render_breakdown({"Pair": 0.7, "Neigh": 0.3})
        lines = out.splitlines()
        assert "Pair" in lines[0]
        assert "Neigh" in lines[1]

    def test_bar_lengths_proportional(self):
        out = render_breakdown({"A": 0.5, "B": 0.25}, width=40)
        bars = [line.count("#") for line in out.splitlines()]
        assert bars[0] == 2 * bars[1]

    def test_title(self):
        out = render_breakdown({"A": 1.0}, title="tasks")
        assert out.splitlines()[0] == "tasks"


class TestRenderSeries:
    def test_bars_proportional(self):
        from repro.model.framework.tables import render_series

        out = render_series([(1, 10.0), (2, 20.0)])
        lines = out.splitlines()
        assert lines[1].count("#") == 2 * lines[0].count("#")

    def test_title_and_values_shown(self):
        from repro.model.framework.tables import render_series

        out = render_series([(1, 5.0)], title="scaling")
        assert out.splitlines()[0] == "scaling"
        assert "5" in out

    def test_empty_rejected(self):
        from repro.model.framework.tables import render_series

        with pytest.raises(ValueError):
            render_series([])

    def test_zero_series_safe(self):
        from repro.model.framework.tables import render_series

        out = render_series([(1, 0.0), (2, 0.0)])
        assert "#" not in out
