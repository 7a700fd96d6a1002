"""Unit tests for the analysis helpers: results map and reporting."""

import pytest

from repro.analysis.reporting import format_grid, format_table
from repro.analysis.results_map import (
    ASSUMPTIONS,
    Feasibility,
    RESULTS_MAP,
    feasibility,
    format_results_map,
    results_map,
)
from repro.interaction.models import ALL_MODELS

MODEL_NAMES = [model.name for model in ALL_MODELS]


class TestResultsMap:
    def test_full_coverage_of_models_and_assumptions(self):
        cells = results_map()
        assert len(cells) == len(MODEL_NAMES) * len(ASSUMPTIONS)
        for model in MODEL_NAMES:
            for assumption in ASSUMPTIONS:
                assert (model, assumption) in cells

    def test_headline_results(self):
        # Theorem 4.1 and Corollary 1.
        assert feasibility("I3", "knowledge-of-omissions") is Feasibility.POSSIBLE
        assert feasibility("I4", "knowledge-of-omissions") is Feasibility.POSSIBLE
        assert feasibility("IT", "knowledge-of-omissions") is Feasibility.POSSIBLE
        # Theorem 3.1: impossibility with infinite memory in omissive models.
        assert feasibility("T3", "infinite-memory") is Feasibility.IMPOSSIBLE
        assert feasibility("I3", "infinite-memory") is Feasibility.IMPOSSIBLE
        # Theorem 3.2: the weak models stay impossible even knowing the bound.
        assert feasibility("I1", "knowledge-of-omissions") is Feasibility.IMPOSSIBLE
        assert feasibility("I2", "knowledge-of-omissions") is Feasibility.IMPOSSIBLE
        # Theorems 4.5 and 4.6.
        assert feasibility("IO", "unique-ids") is Feasibility.POSSIBLE
        assert feasibility("IO", "knowledge-of-n") is Feasibility.POSSIBLE
        # The open question left by the paper.
        assert feasibility("T2", "knowledge-of-omissions") is Feasibility.OPEN

    def test_tw_is_trivial_everywhere(self):
        for assumption in ASSUMPTIONS:
            assert feasibility("TW", assumption) is Feasibility.TRIVIAL

    def test_unknown_cell_raises(self):
        with pytest.raises(KeyError):
            feasibility("I3", "telepathy")

    def test_every_cell_cites_a_source(self):
        for cell in RESULTS_MAP:
            assert cell.source

    def test_labels(self):
        cells = results_map()
        assert cells[("I3", "knowledge-of-omissions")].label().startswith("YES")
        assert cells[("T1", "infinite-memory")].label().startswith("NO")
        assert cells[("T2", "knowledge-of-omissions")].label().startswith("?")

    def test_case_insensitive_lookup(self):
        assert feasibility("io", "unique-ids") is Feasibility.POSSIBLE


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1], ["long-name", 22]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1, "all rows equal width"
        assert "long-name" in table

    def test_format_table_empty_rows(self):
        table = format_table(["x"], [])
        assert "x" in table

    def test_format_grid_lays_out_rows_and_columns(self):
        grid = format_grid("n", [2, 3], ["x", "y"], lambda row, col: f"{col}{row}")
        lines = grid.splitlines()
        assert [cell.strip() for cell in lines[0].strip("|").split("|")] == ["n", "x", "y"]
        assert [cell.strip() for cell in lines[2].strip("|").split("|")] == ["2", "x2", "y2"]
        assert [cell.strip() for cell in lines[3].strip("|").split("|")] == ["3", "x3", "y3"]

    def test_format_results_map_contains_all_models(self):
        rendered = format_results_map()
        for model in MODEL_NAMES:
            assert model in rendered

    def test_format_results_map_overrides(self):
        rendered = format_results_map(overrides={("I3", "knowledge-of-omissions"): "CHECKED"})
        assert "CHECKED" in rendered
