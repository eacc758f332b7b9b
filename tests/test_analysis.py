"""Tests for the metrics, the cell runner and the table formatter."""

import re

import pytest

from repro.analysis.metrics import (
    ExperimentResult,
    crossover_ppc,
    particles_per_second,
    speedup,
)
from repro.analysis.campaign import Campaign, expand_request, run_spec
from repro.analysis.tables import format_table
from repro.api import Session
from repro.hardware.cost_model import KernelTiming
from repro.workloads.uniform import UniformPlasmaWorkload


def make_result(name, total=1.0, ppc=8):
    return ExperimentResult(
        configuration=name, ppc=ppc, shape_order=1, num_particles=1000,
        steps=2, timing=KernelTiming("LX2", {"compute": total}),
    )


class TestMetrics:
    def test_speedup(self):
        assert speedup(2.0, 1.0) == pytest.approx(2.0)
        assert speedup(1.0, 0.0) == float("inf")

    def test_particles_per_second(self):
        assert particles_per_second(100, 2.0) == pytest.approx(50.0)
        assert particles_per_second(100, 0.0) == 0.0

    def test_experiment_result_row(self):
        result = make_result("Baseline", total=2.0)
        row = result.as_row()
        assert row["configuration"] == "Baseline"
        assert row["total_s"] == pytest.approx(2.0)
        assert result.throughput == pytest.approx(1000.0)

    def test_crossover_ppc(self):
        results = {
            1: {"opt": make_result("opt", 2.0), "base": make_result("base", 1.0)},
            8: {"opt": make_result("opt", 0.5), "base": make_result("base", 1.0)},
            64: {"opt": make_result("opt", 0.2), "base": make_result("base", 1.0)},
        }
        assert crossover_ppc(results, "opt", "base") == 8
        assert crossover_ppc({1: results[1]}, "opt", "base") is None


class TestTables:
    def test_format_table_basic(self):
        text = format_table(("a", "b"), [(1, 2.5), ("x", 0.0)])
        assert "a" in text and "x" in text
        assert len(text.splitlines()) == 4

    def test_columns_fit_cells_wider_than_their_header(self):
        # the campaign table's first two columns: a label longer than the
        # 12-character floor and a configuration longer than its header
        text = format_table(
            ("Workload", "Configuration", "Total (s)"),
            [("uniform/ppc=1", "MatrixPIC (FullOpt)", 0.5),
             ("uniform/ppc=8", "Baseline", 12.25)])
        # columns are right-aligned and at least two spaces apart, so a
        # column boundary is where a run of non-blank text ends
        ends = [[m.end() for m in re.finditer(r"\S+(?: \S+)*", line)]
                for line in text.splitlines()]
        assert all(line_ends == ends[0] for line_ends in ends), text
        assert len(ends[0]) == 3


def tiny_cell(configuration, *, steps, warmup_steps=1):
    """The one cell of a 4^3-cell, one-tile uniform grid at PPC 8."""
    (spec,) = expand_request({
        "workload": "uniform", "n_cell": [4, 4, 4], "tile_size": [4, 4, 4],
        "ppc": [8], "configurations": [configuration], "steps": steps,
        "warmup_steps": warmup_steps})
    return spec


class TestRunner:
    @pytest.fixture
    def tiny_workload(self):
        return UniformPlasmaWorkload(n_cell=(4, 4, 4), tile_size=(4, 4, 4),
                                     ppc=8, shape_order=1, max_steps=2)

    def test_run_spec(self):
        result = run_spec(tiny_cell("Baseline", steps=2))
        assert result.configuration == "Baseline"
        assert result.steps == 2
        assert result.timing.total > 0.0
        assert result.num_particles == 4 * 4 * 4 * 8
        assert result.extra["effective_flops"] > 0.0

    def test_sweep_runs_all_configurations(self):
        outcome = Campaign(expand_request({
            "workload": "uniform", "n_cell": [4, 4, 4],
            "tile_size": [4, 4, 4], "ppc": [8],
            "configurations": ["Baseline", "MatrixPIC (FullOpt)"],
            "steps": 1})).run()
        assert [entry.result.configuration for entry in outcome] \
            == ["Baseline", "MatrixPIC (FullOpt)"]
        for entry in outcome:
            assert entry.result.timing.total > 0.0

    def test_simulation_experiment_breakdown(self, tiny_workload):
        with Session.from_workload(tiny_workload) as simulation:
            simulation.run_all(2)
        assert simulation.step_index == 2
        assert "current_deposition" in simulation.breakdown.seconds

    def test_stage_breakdown_excludes_warmup_steps(self):
        """The reported stage_seconds must cover exactly the measured
        steps, like the kernel counters (the Figure-1 style breakdowns
        built from stage_seconds used to include warmup wall-clock)."""
        # zero measured steps after a warmup: every recorded stage second
        # would have to come from the warmup contamination this fix removed
        result = run_spec(tiny_cell("Baseline", steps=0, warmup_steps=2))
        assert result.stage_seconds == {}
        # and a measured run still records the full stage set
        measured = run_spec(tiny_cell("Baseline", steps=2))
        assert "current_deposition" in measured.stage_seconds
        assert sum(measured.stage_seconds.values()) > 0.0

    def test_breakdown_reset_clears_stages_and_steps(self, tiny_workload):
        with Session.from_workload(tiny_workload) as simulation:
            simulation.run_all(2)
        assert simulation.breakdown.steps == 2
        simulation.breakdown.reset()
        assert simulation.breakdown.steps == 0
        assert simulation.breakdown.total == 0.0
        assert dict(simulation.breakdown.seconds) == {}

    def test_warmup_excludes_initial_global_sort(self):
        with_warmup = run_spec(tiny_cell("MatrixPIC (FullOpt)", steps=1))
        without = run_spec(tiny_cell("MatrixPIC (FullOpt)", steps=1,
                                     warmup_steps=0))
        assert with_warmup.timing.sort <= without.timing.sort
