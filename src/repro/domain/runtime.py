"""The domain-decomposed step loop.

:class:`DomainRuntime` owns the decomposition, the halo-exchange engine
and one FDTD solver per subdomain, and drives every stage of the PIC
cycle per subdomain when :class:`repro.pic.simulation.Simulation` is
configured with more than one domain:

1. **gather + push** — ghost layers are refreshed (``boundary`` mode)
   and every tile gathers from its owning subdomain's halo-padded slab,
2. **migration** — the existing boundary/redistribute scan moves
   particles between tiles; tiles are statically owned by subdomains, so
   a cross-subdomain migration is just a tile move whose destination
   belongs to another block (counted by :class:`MigrationStats`),
3. **deposition** — frame, then copy: the shared deposit stage runs on
   the frame grid (:func:`~repro.pic.deposition.base.scratch_reduce`,
   the same code as a single-domain run) and the frame currents are
   copied into the slab interiors,
4. **field solve** — each slab runs the shared scratch-pooled
   :class:`~repro.pic.maxwell.FDTDSolver` with halo exchanges between
   the three leap-frog sub-updates; PEC/absorbing boundaries and the
   moving window touch only the subdomains on the global edge.

Determinism contract (bitwise)
------------------------------
The decomposed run is **bitwise identical** to the single-domain run at
a fixed executor shard count, for every ``(px, py, pz)``:

* all position -> weight staging happens in the **global frame** (the
  frame grid's origin and cell size), and only the resulting *integer*
  base indices are translated into slab coordinates — translating the
  positions themselves would re-round the floating-point normalisation;
* the gather reads slab values that are bit-exact copies of the global
  arrays (halo exchange is pure copying), through identical ids and
  weights, so the fused einsum reduction produces identical momenta;
* deposition *is* the single-domain deposition — it runs on the frame
  grid — and the slab currents are copies of its result;
* the field solve runs the same elementwise update sequence on
  halo-padded slabs whose ghost layers wrap periodically on every axis,
  exactly like the global solver's ``np.roll`` differences; only
  interior cells are retained.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

from repro.domain.decomposition import Decomposition, Subdomain
from repro.domain.halo import EM_FIELDS, HaloExchange
from repro.domain.migration import MigrationStats
from repro.exec import map_shards
from repro.pic.grid import Grid, scratch_arrays
from repro.pic.maxwell import FDTDSolver
from repro.pic.particles import ParticleContainer, ParticleTile
from repro.pic.pusher import push_tile
from repro.pic.shapes import shape_factors
from repro.pic.stencil import StencilOperator
from repro.pipeline.stages import DepositStage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pic.simulation import Simulation

#: slab field/current array names, in Grid.field_arrays order
_ALL_FIELDS = ("ex", "ey", "ez", "bx", "by", "bz", "jx", "jy", "jz", "rho")


def slab_stencil(frame: Grid, slab_shape: Tuple[int, int, int],
                 origin: Tuple[int, int, int], tile: ParticleTile,
                 order: int) -> StencilOperator:
    """A tile's stencil staged in the global frame, addressed in the slab.

    Shape factors are computed from the *global* normalised positions
    (bitwise identical to the single-domain staging); only the integer
    base indices are shifted by the slab origin.  The resulting box must
    lie strictly inside the slab — guaranteed by the halo sizing rule
    ``halo >= shape_order`` — so no wrapping or clamping ever happens in
    slab coordinates.
    """
    xi, yi, zi = frame.normalized_position(tile.x, tile.y, tile.z)
    base_x, wx = shape_factors(xi, order)
    base_y, wy = shape_factors(yi, order)
    base_z, wz = shape_factors(zi, order)
    op = StencilOperator.from_shape_data(
        slab_shape, (False, False, False),
        base_x - origin[0], base_y - origin[1], base_z - origin[2],
        wx, wy, wz, frame.kernels,
    )
    if op.box_dims is None or any(
        op.box_lo[a] < 0 or op.box_lo[a] + op.box_dims[a] > slab_shape[a]
        for a in range(3)
    ):
        raise RuntimeError(
            "tile stencil box escapes the subdomain slab — halo ring "
            "smaller than the stencil support"
        )
    return op


def _domain_push_shard(entries: Sequence[Tuple], frame: Grid, charge: float,
                       mass: float, dt: float, order: int) -> None:
    """Executor task: gather from slabs + push one shard of tiles in place."""
    for tile, slab, origin in entries:
        stencil = slab_stencil(frame, slab.shape, origin, tile, order)
        fields = stencil.gather_many(
            (slab.ex, slab.ey, slab.ez, slab.bx, slab.by, slab.bz)
        )
        push_tile(tile, fields, charge, mass, dt)


def _solver_stage_shard(solvers: Sequence[FDTDSolver], method: str,
                        dt: float) -> None:
    """Executor task: run one leap-frog sub-update on a shard of slabs."""
    for solver in solvers:
        getattr(solver, method)(dt)


class DomainRuntime:
    """Decomposed state and step stages attached to a ``Simulation``."""

    def __init__(self, simulation: "Simulation"):
        config = simulation.config
        self.config = config
        halo = config.domain.halo_for_order(config.shape_order)
        self.decomposition = Decomposition(config.grid, config.domain.domains,
                                           halo)
        self.decomposition.build_slabs(simulation.grid)
        self.halo = HaloExchange(self.decomposition, simulation.grid.periodic,
                                 simulation.telemetry)
        self.migration = MigrationStats(self.decomposition)
        self.solvers: List[FDTDSolver] = (
            [FDTDSolver(sub.slab, scheme=config.field_solver)
             for sub in self.decomposition.subdomains]
            if config.field_solver != "none" else []
        )
        #: slabs are seeded from the frame grid lazily, on first step or
        #: first energy record, so fields set on ``simulation.grid``
        #: *after* construction (the classic way to impose an initial
        #: condition) are carried into the decomposed state
        self._synced = False

    # ------------------------------------------------------------------
    @property
    def subdomains(self) -> List[Subdomain]:
        """The decomposition's subdomains (row-major order)."""
        return self.decomposition.subdomains

    # ------------------------------------------------------------------
    # stage 1: gather + push
    # ------------------------------------------------------------------
    def push(self, simulation: "Simulation", container: ParticleContainer
             ) -> None:
        """Gather from the slabs and advance every particle of a species.

        The per-tile push has no cross-tile accumulation, so it is
        bitwise independent of the shard partition; tiles mutate in
        place.
        """
        decomp = self.decomposition
        entries = [
            (tile, decomp.subdomains[decomp.tile_owner[tid]].slab,
             decomp.subdomains[decomp.tile_owner[tid]].origin)
            for tid, tile in enumerate(container.tiles)
            if tile.num_particles > 0
        ]
        map_shards(simulation.executor, _domain_push_shard, entries,
                   simulation.grid, container.charge, container.mass,
                   simulation.dt, simulation.config.shape_order)

    # ------------------------------------------------------------------
    # stage 3: deposition (on the frame grid) -> slabs
    # ------------------------------------------------------------------
    def pull_currents_from_frame(self, frame: Grid) -> None:
        """Copy frame-grid currents into the slab interiors (exact copies).

        Every deposition strategy runs on the global frame exactly as in
        the single-domain path; the slab current halos are never written
        or read (the solver's ``push_e`` reads J at the cell it updates).
        """
        for sub in self.subdomains:
            for name in ("jx", "jy", "jz"):
                sub.interior_view(getattr(sub.slab, name))[...] = \
                    getattr(frame, name)[sub.global_slices]

    # ------------------------------------------------------------------
    # stage 4: laser, field solve, boundaries
    # ------------------------------------------------------------------
    def inject_laser(self, simulation: "Simulation") -> None:
        """Add the antenna drive on every subdomain crossing its plane."""
        laser = simulation.laser
        values = laser.drive(simulation.grid, simulation.time, simulation.dt)
        if values is None:
            return
        axis = laser.axis
        plane = laser.plane_index
        name = laser.field_name
        trans_axes = [a for a in range(3) if a != axis]
        for sub in self.subdomains:
            if not sub.cell_lo[axis] <= plane < sub.cell_hi[axis]:
                continue
            index: List[object] = [None, None, None]
            index[axis] = plane - sub.origin[axis]
            for a in trans_axes:
                index[a] = slice(sub.halo, sub.halo + sub.interior_shape[a])
            window = tuple(
                slice(sub.cell_lo[a], sub.cell_hi[a]) for a in trans_axes
            )
            getattr(sub.slab, name)[tuple(index)] += values[window]

    def solve(self, simulation: "Simulation") -> None:
        """One leap-frog field update per slab, halos exchanged between.

        Each sub-update reads at most one cell past the cells it keeps,
        so a ``wrap``-mode exchange before each of the three sub-updates
        makes every retained interior cell a bitwise replica of the
        global solver's update.
        """
        dt = simulation.dt
        e_names = ("ex", "ey", "ez")
        b_names = ("bx", "by", "bz")
        self.halo.exchange(e_names, mode="wrap")
        self._run_solver_stage(simulation, "push_b", 0.5 * dt)
        self.halo.exchange(b_names, mode="wrap")
        self._run_solver_stage(simulation, "push_e", dt)
        self.halo.exchange(e_names, mode="wrap")
        self._run_solver_stage(simulation, "push_b", 0.5 * dt)

    def _run_solver_stage(self, simulation: "Simulation", method: str,
                          dt: float) -> None:
        map_shards(simulation.executor, _solver_stage_shard, self.solvers,
                   method, dt)

    def apply_boundaries(self, simulation: "Simulation") -> None:
        """PEC/absorbing boundaries on the subdomains touching the edge."""
        boundaries = simulation.boundaries
        shape = simulation.grid.shape
        for sub in self.subdomains:
            fields = {
                name: sub.interior_view(getattr(sub.slab, name))
                for name in EM_FIELDS
            }
            boundaries.apply_window(fields, sub.cell_lo, shape)

    # ------------------------------------------------------------------
    # moving window
    # ------------------------------------------------------------------
    def shift_window_fields(self, grid: Grid, shift: int) -> None:
        """Shift every slab's interior by ``shift`` cells along the window axis.

        Installed as :attr:`MovingWindow.field_shifter`.  Pure data
        movement: each subdomain's new interior is assembled from the
        pre-shift interiors of the blocks further along the axis (and
        zeros past the leading edge), processed in ascending axis order
        so sources are still unmodified when read — bitwise identical to
        the global ``np.roll`` + zero-fill.
        """
        axis = self.config.moving_window.axis
        decomp = self.decomposition
        n = decomp.grid_config.n_cell[axis]
        ordered = sorted(self.subdomains, key=lambda s: s.cell_lo[axis])
        for sub in ordered:
            dims = sub.interior_shape
            a_lo, a_hi = sub.cell_lo[axis], sub.cell_hi[axis]
            src_lo, src_hi = a_lo + shift, a_hi + shift
            valid_hi = min(src_hi, n)
            for name in _ALL_FIELDS:
                view = sub.interior_view(getattr(sub.slab, name))
                fresh = scratch_arrays.acquire(dims)
                copied = 0
                cur = src_lo
                while cur < valid_hi:
                    owner_pos = decomp.owner_along_axis(axis, cur)
                    o_lo, o_hi = decomp.axis_windows(axis)[owner_pos]
                    take = min(o_hi, valid_hi) - cur
                    src_index = list(sub.index)
                    src_index[axis] = owner_pos
                    src_sub = decomp.domain_at(tuple(src_index))
                    src_view = src_sub.interior_view(
                        getattr(src_sub.slab, name))
                    dest_sl = [slice(None)] * 3
                    dest_sl[axis] = slice(cur - shift - a_lo,
                                          cur - shift - a_lo + take)
                    src_sl = [slice(None)] * 3
                    src_sl[axis] = slice(cur - o_lo, cur - o_lo + take)
                    fresh[tuple(dest_sl)] = src_view[tuple(src_sl)]
                    copied += take
                    cur += take
                if copied < dims[axis]:
                    tail = [slice(None)] * 3
                    tail[axis] = slice(copied, None)
                    fresh[tuple(tail)] = 0.0
                view[...] = fresh
                scratch_arrays.release(fresh)

    # ------------------------------------------------------------------
    # assembly / diagnostics
    # ------------------------------------------------------------------
    def sync_from_frame_once(self, frame: Grid) -> None:
        """Seed the slab interiors from the frame grid's arrays (once).

        Pure copies, idempotent after the first call.  Invoked before
        the first decomposed step and before the first energy record, so
        an initial field imposed on ``simulation.grid`` between
        construction and ``run()`` enters the decomposed state exactly
        as it would the single-domain one.
        """
        if self._synced:
            return
        self._synced = True
        arrays = frame.field_arrays()
        for sub in self.subdomains:
            for name in _ALL_FIELDS:
                sub.interior_view(getattr(sub.slab, name))[...] = \
                    arrays[name][sub.global_slices]

    def assemble(self, target: Grid,
                 names: Sequence[str] = _ALL_FIELDS) -> Grid:
        """Copy every slab interior into the global grid arrays.

        Pure copies — the assembled arrays are bitwise replicas of the
        decomposed state.  Used for the energy diagnostic, tests and
        output; the slabs remain the arrays of record.
        """
        arrays = target.field_arrays()
        for sub in self.subdomains:
            for name in names:
                arrays[name][sub.global_slices] = \
                    sub.interior_view(getattr(sub.slab, name))
        return target


# ----------------------------------------------------------------------
# pipeline stage adapters (the decomposed stage set)
# ----------------------------------------------------------------------

class DomainSyncStage:
    """Pipeline stage: one-time seeding of the slabs from the frame grid.

    Idempotent after the first step — kept as a stage (rather than
    construction-time work) so fields imposed on ``simulation.grid``
    between construction and the first step enter the decomposed state.
    """

    name = "sync_frame"
    bucket = "other"
    reads = frozenset({"grid.fields", "grid.currents", "domain.seeded"})
    writes = frozenset({
        "domain.seeded", "domain.slabs.fields", "domain.slabs.currents",
    })

    def run(self, ctx) -> None:
        ctx.domain.sync_from_frame_once(ctx.grid)


class HaloExchangeStage:
    """Pipeline stage: refresh every slab's EM ghost layers.

    Runs before the gather so tiles near a subdomain edge read
    bit-exact copies of their neighbours' field values.
    """

    name = "halo_exchange"
    bucket = "field_gather_push"
    reads = frozenset({"domain.slabs.fields"})
    writes = frozenset({"domain.halos"})

    def run(self, ctx) -> None:
        ctx.domain.halo.exchange(EM_FIELDS, mode="boundary")


class DomainGatherPushStage:
    """Pipeline stage: per-subdomain field gather + Boris push."""

    name = "gather_push"
    bucket = "field_gather_push"
    reads = frozenset({
        "domain.slabs.fields", "domain.halos", "domain.geometry",
        "containers.position", "containers.momentum",
        "containers.membership", "simulation.pusher", "dt", "executor",
    })
    writes = frozenset({"containers.position", "containers.momentum"})

    def run(self, ctx) -> None:
        for container in ctx.containers:
            ctx.domain.push(ctx.simulation, container)


class DomainDepositStage(DepositStage):
    """Pipeline stage: the shared deposit stage, then frame -> slabs.

    Deposition runs on the frame grid exactly as in the single-domain
    path (same strategy, same shard partition, same scratch reduction);
    the slab currents are copies of the result, so decomposed parity
    needs no argument beyond "a copy is a copy".
    """

    reads = DepositStage.reads | {"domain.geometry"}
    writes = DepositStage.writes | {"domain.slabs.currents"}

    def run(self, ctx) -> None:
        super().run(ctx)
        ctx.domain.pull_currents_from_frame(ctx.grid)


class DomainLaserStage:
    """Pipeline stage: antenna injection on the subdomains it crosses."""

    name = "laser"
    bucket = "field_solve"
    reads = frozenset({
        "domain.geometry", "simulation.laser", "simulation.time", "dt",
    })
    writes = frozenset({"domain.slabs.fields"})

    def run(self, ctx) -> None:
        if ctx.simulation.laser is not None:
            ctx.domain.inject_laser(ctx.simulation)


class DomainSolveStage:
    """Pipeline stage: per-slab leap-frog update with halo exchanges."""

    name = "solve"
    bucket = "field_solve"
    reads = frozenset({
        "domain.solvers", "domain.slabs.currents", "domain.slabs.fields",
        "domain.halos", "simulation.solver", "dt",
    })
    writes = frozenset({"domain.slabs.fields", "domain.halos"})

    def run(self, ctx) -> None:
        if ctx.domain.solvers:
            ctx.domain.solve(ctx.simulation)


class DomainBoundaryStage:
    """Pipeline stage: PEC/absorbing boundaries on edge subdomains."""

    name = "boundary"
    bucket = "field_solve"
    reads = frozenset({
        "domain.solvers", "domain.geometry", "simulation.boundaries",
    })
    writes = frozenset({"domain.slabs.fields"})

    def run(self, ctx) -> None:
        if ctx.domain.solvers:
            ctx.domain.apply_boundaries(ctx.simulation)
