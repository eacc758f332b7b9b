"""Tests for the configuration dataclasses."""

import pytest

from repro import config, constants
from repro.config import (
    GridConfig,
    LaserConfig,
    MovingWindowConfig,
    SimulationConfig,
    SpeciesConfig,
)
from repro.core import gpma, sort_policy


class TestGridConfig:
    def test_cell_size(self):
        grid = GridConfig(n_cell=(10, 20, 40), hi=(1.0, 2.0, 4.0))
        assert grid.cell_size == pytest.approx((0.1, 0.1, 0.1))

    def test_num_cells(self):
        assert GridConfig(n_cell=(4, 5, 6)).num_cells == 120

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            GridConfig(n_cell=(4, 5))

    def test_rejects_nonpositive_cells(self):
        with pytest.raises(ValueError):
            GridConfig(n_cell=(0, 4, 4))

    def test_rejects_inverted_extent(self):
        with pytest.raises(ValueError):
            GridConfig(n_cell=(4, 4, 4), lo=(0, 0, 0), hi=(1, 1, -1))

    def test_rejects_unknown_boundary(self):
        with pytest.raises(ValueError):
            GridConfig(n_cell=(4, 4, 4), field_boundary=("periodic", "foo", "pec"))


class TestSpeciesConfig:
    def test_particles_per_cell(self):
        assert SpeciesConfig(ppc=(8, 4, 4)).particles_per_cell == 128

    def test_default_is_electron(self):
        species = SpeciesConfig()
        assert species.charge == pytest.approx(constants.Q_ELECTRON)
        assert species.mass == pytest.approx(constants.M_ELECTRON)

    def test_rejects_negative_density(self):
        with pytest.raises(ValueError):
            SpeciesConfig(density=-1.0)

    def test_rejects_superluminal_thermal_velocity(self):
        with pytest.raises(ValueError):
            SpeciesConfig(thermal_velocity=constants.C_LIGHT)


class TestSortingPolicy:
    def test_constants_match_appendix_a(self):
        assert sort_policy.SORT_INTERVAL == 50
        assert sort_policy.MIN_SORT_INTERVAL == 10
        assert sort_policy.SORT_TRIGGER_REBUILD_COUNT == 100
        assert sort_policy.SORT_TRIGGER_EMPTY_RATIO == pytest.approx(0.15)
        assert sort_policy.SORT_TRIGGER_FULL_RATIO == pytest.approx(0.85)
        assert sort_policy.SORT_TRIGGER_PERF_DEGRAD == pytest.approx(0.80)
        assert gpma.GAP_FRACTION == pytest.approx(0.25)


class TestLaserConfig:
    def test_peak_field_scales_with_a0(self):
        low = LaserConfig(a0=1.0)
        high = LaserConfig(a0=3.0)
        assert high.peak_field == pytest.approx(3.0 * low.peak_field)


class TestMovingWindowConfig:
    def test_defaults_disabled(self):
        assert MovingWindowConfig().enabled is False


class TestSimulationConfig:
    def _config(self, **kwargs):
        return SimulationConfig(grid=GridConfig(n_cell=(8, 8, 8),
                                                hi=(1e-5, 1e-5, 1e-5)), **kwargs)

    def test_time_step_respects_cfl(self, monkeypatch):
        full = self._config().time_step
        monkeypatch.setattr(config, "CFL", 0.5)
        assert self._config().time_step == pytest.approx(0.5 * full)

    def test_time_step_3d_cfl_limit(self):
        cfg = self._config()
        dx = cfg.grid.cell_size[0]
        expected = dx / (constants.C_LIGHT * (3.0**0.5))
        assert cfg.time_step == pytest.approx(expected)

    def test_rejects_unknown_shape_order(self):
        with pytest.raises(ValueError):
            self._config(shape_order=4)

    def test_single_species_is_wrapped_in_tuple(self):
        cfg = SimulationConfig(grid=GridConfig(n_cell=(4, 4, 4)),
                               species=SpeciesConfig())
        assert isinstance(cfg.species, tuple)
        assert len(cfg.species) == 1

    def test_with_updates(self):
        cfg = self._config(max_steps=10)
        updated = cfg.with_updates(max_steps=20)
        assert updated.max_steps == 20
        assert cfg.max_steps == 10
