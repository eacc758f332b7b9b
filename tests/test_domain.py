"""Domain decomposition (:mod:`repro.domain`): geometry, halo exchange,
the per-slab solve, migration, and the bitwise parity contract.

The contract under test: for any ``(px, py, pz)`` split, any executor
backend and a fixed shard count, a decomposed run is **bitwise
identical** to the single-domain run — every field component, J/rho and
the energy history.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import constants
from repro.api import Session
from repro.baselines.configs import make_strategy
from repro.config import (
    DomainConfig,
    ExecutionConfig,
    GridConfig,
    SimulationConfig,
    SpeciesConfig,
)
from repro.domain import decomposition
from repro.domain.decomposition import Decomposition
from repro.domain.halo import EM_FIELDS, HaloExchange
from repro.pic.deposition.reference import deposit_reference
from repro.pic.grid import Grid
from repro.pic.maxwell import FDTDSolver
from repro.workloads.lwfa import LWFAWorkload
from repro.workloads.uniform import UniformPlasmaWorkload

ALL_COMPONENTS = ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz", "rho")


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def run_uniform(domains, *, backend="serial", shards=1, steps=3, order=1,
                n_cell=(8, 8, 8), tile=(4, 4, 4), ppc=8, thermal=None,
                strategy=None):
    """Run the uniform workload; returns the simulation.

    ``strategy`` names a ``make_strategy`` configuration (the reference
    deposition when None).
    """
    kwargs = {} if thermal is None else {"thermal_velocity": thermal}
    workload = UniformPlasmaWorkload(
        n_cell=n_cell, tile_size=tile, ppc=ppc, shape_order=order,
        max_steps=steps, domains=domains,
        execution=ExecutionConfig(backend=backend, num_shards=shards),
        **kwargs,
    )
    simulation = workload.build_session(
        deposition=make_strategy(strategy) if strategy else None)
    try:
        simulation.run_all(steps, record_energy=True)
        return simulation
    finally:
        simulation.shutdown()


def run_lwfa(domains, *, backend="serial", shards=1, steps=12):
    """Run the LWFA workload (laser + absorbing walls + moving window)."""
    workload = LWFAWorkload(
        n_cell=(8, 8, 32), tile_size=(4, 4, 8), ppc=1, max_steps=steps,
        domains=domains,
        execution=ExecutionConfig(backend=backend, num_shards=shards),
    )
    simulation = workload.build_session()
    try:
        simulation.run_all(steps, record_energy=True)
        return simulation
    finally:
        simulation.shutdown()


def assert_bitwise_equal(sim_a: Session, sim_b: Session,
                         components=ALL_COMPONENTS) -> None:
    """Fields, currents and energy history must match bit for bit."""
    for name in components:
        a = getattr(sim_a.grid, name)
        b = getattr(sim_b.grid, name)
        assert np.array_equal(a, b), (
            f"{name} differs (max abs diff "
            f"{float(np.max(np.abs(a - b)))!r})"
        )
    history_a = [(r.step, r.field_energy, r.kinetic_energy)
                 for r in sim_a.energy.history]
    history_b = [(r.step, r.field_energy, r.kinetic_energy)
                 for r in sim_b.energy.history]
    assert history_a == history_b


# ----------------------------------------------------------------------
# decomposition geometry
# ----------------------------------------------------------------------

class TestDecomposition:
    def test_tile_aligned_partition(self):
        config = GridConfig(n_cell=(8, 8, 8), tile_size=(4, 4, 4))
        decomp = Decomposition(config, (2, 1, 2))
        assert decomp.num_domains == 4
        # every tile owned exactly once, interiors tile the grid
        owners = decomp.tile_owner
        assert owners.shape[0] == 8
        covered = np.zeros(config.n_cell, dtype=int)
        for sub in decomp.subdomains:
            covered[sub.global_slices] += 1
            assert sub.slab_shape == tuple(
                d + 2 for d in sub.interior_shape)
        assert np.all(covered == 1)

    def test_ragged_tiles(self):
        # 10 cells in tiles of 4 -> tiles of 4, 4, 2 along the axis
        config = GridConfig(n_cell=(10, 4, 4), tile_size=(4, 4, 4))
        decomp = Decomposition(config, (3, 1, 1))
        windows = decomp.axis_windows(0)
        assert windows == [(0, 4), (4, 8), (8, 10)]

    def test_rejects_more_domains_than_tiles(self):
        config = GridConfig(n_cell=(8, 8, 8), tile_size=(4, 4, 4))
        with pytest.raises(ValueError, match="tile-aligned"):
            Decomposition(config, (4, 1, 1))

    def test_simulation_rejects_bad_split(self):
        grid = GridConfig(n_cell=(8, 8, 8), hi=(1e-5,) * 3,
                          tile_size=(4, 4, 4))
        config = SimulationConfig(
            grid=grid, species=(SpeciesConfig(),), max_steps=1,
            domain=DomainConfig(domains=(8, 1, 1)),
        )
        with pytest.raises(ValueError, match="tile-aligned"):
            Session(config, load_plasma=False)


# ----------------------------------------------------------------------
# halo exchange against the global wrap oracle
# ----------------------------------------------------------------------

def _random_decomposed_fields(rng, n_cell, tile, domains, halo,
                              field_boundary):
    """A frame grid with random E/B plus slabs holding the interiors."""
    config = GridConfig(n_cell=n_cell, hi=tuple(1e-5 * n for n in n_cell),
                        tile_size=tile, field_boundary=field_boundary,
                        particle_boundary=field_boundary)
    frame = Grid(config)
    for name in EM_FIELDS:
        getattr(frame, name)[...] = rng.standard_normal(frame.shape)
    with mock.patch.object(decomposition, "HALO", halo):  # wider ghosts
        decomp = Decomposition(config, domains)
    decomp.build_slabs(frame)
    for sub in decomp.subdomains:
        for name in EM_FIELDS:
            sub.interior_view(getattr(sub.slab, name))[...] = \
                getattr(frame, name)[sub.global_slices]
    return frame, decomp


@pytest.mark.parametrize("mode", ["wrap"])  # the one mode; ids unchanged
@pytest.mark.parametrize("field_boundary", [
    ("periodic", "periodic", "periodic"),
    ("periodic", "periodic", "absorbing"),
])
def test_halo_exchange_matches_global_indexing(mode, field_boundary):
    """Every ghost cell equals the globally wrapped value, open axes too."""
    rng = np.random.default_rng(3)
    frame, decomp = _random_decomposed_fields(
        rng, (8, 6, 8), (4, 3, 2), (2, 2, 4), halo=3, field_boundary=field_boundary)
    exchange = HaloExchange(decomp, frame.periodic)
    exchange.exchange(EM_FIELDS)
    for sub in decomp.subdomains:
        idx = [np.mod(sub.origin[a] + np.arange(sub.slab_shape[a]),
                      frame.shape[a]) for a in range(3)]
        for name in EM_FIELDS:
            expected = getattr(frame, name)[np.ix_(*idx)]
            assert np.array_equal(getattr(sub.slab, name), expected), \
                (name, sub.index)


# ----------------------------------------------------------------------
# deposition: on the frame — one path for every strategy
# ----------------------------------------------------------------------

def test_decomposed_deposit_matches_global_run():
    """After one step every split holds the global run's J, bit for bit.

    Reference and instrumented deposition go through the same stage;
    the two-cell subdomains are thinner than the four-node QSP support.
    """
    cases = [(order, strategy, backend, shards)
             for order in (1, 2, 3) for strategy in (None, "Baseline")
             for backend in ("serial", "threads") for shards in (1, 2, 3)]
    for order, strategy, backend, shards in cases:
        run = dict(steps=1, order=order, n_cell=(4, 4, 4), tile=(2, 2, 2),
                   strategy=strategy, backend=backend, shards=shards)
        reference = run_uniform((1, 1, 1), **run)
        assert np.any(reference.grid.jx != 0.0)
        for split in ((2, 1, 1), (1, 2, 2), (2, 2, 2)):
            assert_bitwise_equal(reference, run_uniform(split, **run))


# ----------------------------------------------------------------------
# end-to-end bitwise parity
# ----------------------------------------------------------------------

class TestStepParity:
    def test_serial_2x1x2(self):
        assert_bitwise_equal(run_uniform((1, 1, 1)), run_uniform((2, 1, 2)))

    def test_initial_field_on_frame_grid_is_honoured(self):
        """A field imposed on ``sim.grid`` after construction must enter
        the decomposed state.  Trivially true now that the frame grid is
        the array of record (the solve loads its slabs from it every
        step); kept as the pin against a second copy of the fields."""
        def build(domains):
            workload = UniformPlasmaWorkload(
                n_cell=(8, 8, 8), tile_size=(4, 4, 4), ppc=8, max_steps=3,
                domains=domains)
            simulation = workload.build_session()
            try:
                rng = np.random.default_rng(11)
                simulation.grid.ez[...] = 1e3 * rng.standard_normal(
                    simulation.grid.shape)
                simulation.run_all(3, record_energy=True)
                return simulation
            finally:
                simulation.shutdown()

        sim_a, sim_b = build((1, 1, 1)), build((2, 1, 2))
        assert sim_a.energy.history[0].field_energy > 0.0
        assert_bitwise_equal(sim_a, sim_b,
                             components=("ex", "ey", "ez", "bx", "by", "bz",
                                         "jx", "jy", "jz"))

    def test_threads_backend_fixed_shards(self):
        assert_bitwise_equal(
            run_uniform((1, 1, 1), backend="threads", shards=4),
            run_uniform((2, 2, 1), backend="threads", shards=4),
        )

    def test_qsp_order_with_thin_subdomains(self):
        # nz tiles of 2 cells -> 4 subdomains of 2 cells < QSP support 4
        assert_bitwise_equal(
            run_uniform((1, 1, 1), order=3, tile=(8, 8, 2)),
            run_uniform((1, 1, 4), order=3, tile=(8, 8, 2)),
        )

    def test_tsc_order(self):
        assert_bitwise_equal(
            run_uniform((1, 1, 1), order=2),
            run_uniform((2, 1, 2), order=2),
        )

    def test_every_backend_agrees_across_splits(self):
        reference = run_uniform((1, 1, 1), backend="serial", shards=2,
                                steps=2)
        for backend in ("serial", "threads"):
            for domains in ((2, 1, 1), (2, 2, 2)):
                assert_bitwise_equal(
                    reference,
                    run_uniform(domains, backend=backend, shards=2, steps=2),
                )


    def test_matrix_pic_qsp_agrees_across_backends_and_splits(self):
        # the block-product kernel: a cell's rhocell depends on that
        # cell's particle sequence only, so neither the thread a tile
        # runs on nor the subdomain it belongs to may show in J
        mpic = dict(order=3, strategy="MatrixPIC (FullOpt)", shards=2,
                    thermal=0.2 * constants.C_LIGHT)
        reference = run_uniform((1, 1, 1), backend="serial", **mpic)
        assert_bitwise_equal(
            reference, run_uniform((1, 1, 1), backend="threads", **mpic))
        assert_bitwise_equal(
            reference, run_uniform((2, 1, 1), backend="threads", **mpic))


class TestFrameGridIsTheRecord:
    """``session.grid`` is current after every step of a decomposed run —
    with no energy record, checkpoint or health probe to refresh it."""

    @staticmethod
    def final_grid(workload, steps):
        with workload.build_session() as session:
            session.run_all(steps, record_energy=False)
            assert not session.energy.history
            return session.grid, session.moving_window

    @staticmethod
    def assert_grids_equal(grid_a, grid_b):
        assert np.any(grid_a.ex != 0.0)
        for name in ALL_COMPONENTS:
            assert np.array_equal(getattr(grid_a, name),
                                  getattr(grid_b, name)), name

    @pytest.mark.parametrize("order", [1, 3])
    @pytest.mark.parametrize("domains", [(2, 1, 1), (1, 2, 2)])
    def test_uniform(self, domains, order):
        def build(split):
            return UniformPlasmaWorkload(
                seed=7, n_cell=(8, 8, 8), tile_size=(4, 4, 4), ppc=8,
                shape_order=order, max_steps=4, domains=split,
                execution=ExecutionConfig(backend="threads", num_shards=2))

        reference, _ = self.final_grid(build((1, 1, 1)), 4)
        decomposed, _ = self.final_grid(build(domains), 4)
        self.assert_grids_equal(reference, decomposed)

    def test_lwfa_with_a_window_shift(self):
        def build(split):
            return LWFAWorkload(n_cell=(8, 8, 32), tile_size=(4, 4, 8),
                                ppc=1, max_steps=12, domains=split)

        reference, _ = self.final_grid(build((1, 1, 1)), 12)
        decomposed, window = self.final_grid(build((1, 1, 2)), 12)
        assert window.total_shift_cells > 0
        self.assert_grids_equal(reference, decomposed)


class TestLWFAParity:
    """Seam-crossing laser + wakefield + moving window + absorbing walls."""

    def test_longitudinal_split_crosses_laser(self):
        # the laser plane and the wake cross the z seams of a 1x1x2 split
        assert_bitwise_equal(run_lwfa((1, 1, 1)), run_lwfa((1, 1, 2)))

    def test_transverse_and_longitudinal_split_threads(self):
        assert_bitwise_equal(
            run_lwfa((1, 1, 1), backend="threads", shards=2),
            run_lwfa((2, 1, 2), backend="threads", shards=2),
        )

    def test_window_advanced(self):
        sim = run_lwfa((1, 1, 4), steps=16)
        assert sim.moving_window.total_shift_cells > 0


class TestPECBoundary:
    def test_pec_walls_decomposed(self):
        grid = GridConfig(n_cell=(8, 8, 8), hi=(8e-6,) * 3,
                          tile_size=(4, 4, 4),
                          field_boundary=("periodic", "periodic", "pec"),
                          particle_boundary=("periodic", "periodic",
                                             "absorbing"))
        def build(domains):
            config = SimulationConfig(
                grid=grid, species=(SpeciesConfig(ppc=(2, 2, 2)),),
                max_steps=4, domain=DomainConfig(domains=domains),
            )
            simulation = Session(config)
            try:
                simulation.run_all(record_energy=True)
                return simulation
            finally:
                simulation.shutdown()

        sim_a, sim_b = build((1, 1, 1)), build((2, 1, 2))
        assert_bitwise_equal(sim_a, sim_b,
                             components=("ex", "ey", "ez", "bx", "by", "bz",
                                         "jx", "jy", "jz"))
        # tangential E vanishes on the z walls in the decomposed run too
        assert np.all(sim_b.grid.ex[:, :, 0] == 0.0)
        assert np.all(sim_b.grid.ey[:, :, -1] == 0.0)


# ----------------------------------------------------------------------
# migration accounting
# ----------------------------------------------------------------------

class TestMigration:
    def test_cross_subdomain_moves_counted(self):
        sim = run_uniform((2, 1, 2), steps=6,
                          thermal=0.4 * constants.C_LIGHT)
        stats = sim.domain.migration
        # thermal plasma on a 4-tile-per-axis grid migrates across seams
        assert stats.moved_particles > 0
        assert 0 < stats.migrated_particles <= stats.moved_particles
        assert stats.pair_counts.sum() == stats.migrated_particles
        assert np.all(np.diag(stats.pair_counts) == 0)

    def test_migration_deterministic_across_backends(self):
        a = run_uniform((2, 1, 2), backend="serial", shards=2, steps=3)
        b = run_uniform((2, 1, 2), backend="threads", shards=2, steps=3)
        assert (a.domain.migration.migrated_particles
                == b.domain.migration.migrated_particles)
        assert np.array_equal(a.domain.migration.pair_counts,
                              b.domain.migration.pair_counts)


# ----------------------------------------------------------------------
# decomposed field solve on static fields
# ----------------------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(
    split=st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(1, 2)),
    scheme=st.sampled_from(["yee", "ckc"]),
    seed=st.integers(0, 1000),
)
def test_decomposed_solve_matches_global(split, scheme, seed):
    """Halo-exchanged per-slab FDTD == the global roll-based solver."""
    rng = np.random.default_rng(seed)
    frame, decomp = _random_decomposed_fields(
        rng, (6, 6, 4), (2, 2, 2), split, halo=1,
        field_boundary=("periodic",) * 3)
    for name in ("jx", "jy", "jz"):
        getattr(frame, name)[...] = rng.standard_normal(frame.shape)
        for sub in decomp.subdomains:
            sub.interior_view(getattr(sub.slab, name))[...] = \
                getattr(frame, name)[sub.global_slices]
    exchange = HaloExchange(decomp, frame.periodic)
    solvers = [FDTDSolver(sub.slab, scheme=scheme)
               for sub in decomp.subdomains]
    global_solver = FDTDSolver(frame, scheme=scheme)

    dt = 1.0e-16
    reference = Grid(frame.config)
    for name, array in reference.field_arrays().items():
        np.copyto(array, frame.field_arrays()[name])
    FDTDSolver(reference, scheme=scheme).step(dt)

    exchange.exchange(("ex", "ey", "ez"))
    for solver in solvers:
        solver.push_b(0.5 * dt)
    exchange.exchange(("bx", "by", "bz"))
    for solver in solvers:
        solver.push_e(dt)
    exchange.exchange(("ex", "ey", "ez"))
    for solver in solvers:
        solver.push_b(0.5 * dt)

    for sub in decomp.subdomains:
        for name in EM_FIELDS:
            assert np.array_equal(
                sub.interior_view(getattr(sub.slab, name)),
                getattr(reference, name)[sub.global_slices],
            ), (name, sub.index)
    del global_solver


# ----------------------------------------------------------------------
# instrumented deposition strategies fall back to the frame path
# ----------------------------------------------------------------------

class _FrameStrategy:
    """Minimal non-reference strategy: the reference kernel, renamed."""

    name = "FrameFallback"

    def run_step(self, grid, container, order, step, executor=None):
        deposit_reference(grid, container, order, executor=executor)
        return None


def test_custom_strategy_runs_on_frame_and_matches():
    def build(domains):
        workload = UniformPlasmaWorkload(
            n_cell=(8, 8, 8), tile_size=(4, 4, 4), ppc=8, max_steps=3,
            domains=domains)
        simulation = workload.build_session(deposition=_FrameStrategy())
        try:
            simulation.run_all(3, record_energy=True)
            return simulation
        finally:
            simulation.shutdown()

    assert_bitwise_equal(build((1, 1, 1)), build((2, 2, 1)),
                         components=("ex", "ey", "ez", "bx", "by", "bz",
                                     "jx", "jy", "jz"))
