"""Tests for text-table rendering."""

from repro.experiments.report import format_bars, format_table


class TestFormatTable:
    def test_alignment_and_floats(self):
        text = format_table(
            ["mix", "value"], [("2-MEM", 1.23456), ("8-ILP", 0.5)]
        )
        lines = text.splitlines()
        assert "mix" in lines[0]
        assert "1.235" in text
        assert "0.500" in text

    def test_title_included(self):
        text = format_table(["a"], [(1,)], title="Figure X")
        assert text.startswith("Figure X")

    def test_mixed_types(self):
        text = format_table(["a", "b"], [("s", 42), (3.0, "t")])
        assert "42" in text and "3.000" in text


class TestFormatBars:
    def test_empty(self):
        assert format_bars({}) == "(no data)"

    def test_peak_gets_full_width(self):
        text = format_bars({"a": 1.0, "b": 0.5}, width=10)
        lines = text.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_zero_values_no_bar(self):
        text = format_bars({"a": 1.0, "b": 0.0})
        assert text.splitlines()[1].count("#") == 0

