"""Tests for text report rendering."""

from repro.core.breakdown import afr_by_class
from repro.core.correlation import correlation_by_type
from repro.core.findings import evaluate_findings
from repro.core.report import (
    format_breakdown,
    format_correlation,
    format_findings,
    format_gap_analyses,
    class_overview,
    format_overview,
    format_table,
)
from repro.core.timebetween import figure9_series


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        # All rows padded to equal visible width per column.
        assert lines[2].startswith("1  ")

    def test_empty_rows(self):
        text = format_table(["x"], [])
        assert "x" in text


class TestRenderers:
    def test_overview_mentions_all_classes(self, small_dataset):
        text = format_overview(class_overview(small_dataset))
        for label in ("Nearline", "Low-end", "Mid-range", "High-end"):
            assert label in text

    def test_breakdown_contains_percentages(self, small_dataset):
        rows = afr_by_class(small_dataset)
        text = format_breakdown("demo", rows)
        assert "demo" in text
        assert "%" in text
        assert "Disk Failure" in text

    def test_gap_analyses_table(self, midsize_dataset):
        text = format_gap_analyses("gaps", figure9_series(midsize_dataset, "shelf"))
        assert "P(gap<10^4 s)" in text
        assert "Overall Storage Subsystem Failure" in text

    def test_correlation_table(self, midsize_dataset):
        text = format_correlation(
            "corr", correlation_by_type(midsize_dataset, "shelf")
        )
        assert "P(2) empirical" in text
        assert "x" in text  # inflation column

    def test_findings_scoreboard(self, midsize_dataset):
        findings = evaluate_findings(midsize_dataset, skip=[4, 5, 6, 7])
        text = format_findings(findings)
        assert "Findings scoreboard" in text
        assert "[PASS]" in text or "[FAIL]" in text
