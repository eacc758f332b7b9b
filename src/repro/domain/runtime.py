"""The domain-decomposed field solve.

The frame grid (``session.grid``) is the array of record for every
run: gather/push, deposition, laser, boundaries, the moving window,
energy, checkpoints and health probes all run the single-domain code on
it.  A decomposed run differs in one stage, the field solve:
:class:`DomainRuntime` owns the decomposition, the halo-exchange engine
and one :class:`~repro.pic.maxwell.FDTDSolver` per subdomain slab, and
:meth:`DomainRuntime.solve` loads the slab interiors from the frame,
runs the leap-frog update per slab with halo exchanges between the three
sub-updates, and stores the E/B interiors back.  The slabs are the
solver's scratch; nothing else reads them.

Particle tiles are statically owned by subdomains, so a cross-subdomain
migration is a tile move whose destination belongs to another block
(counted by :class:`MigrationStats` through the shared migrate stage).

Determinism contract (bitwise)
------------------------------
The decomposed run is **bitwise identical** to the single-domain run at
a fixed executor shard count, for every ``(px, py, pz)``: loading and
storing are pure copies, and the per-slab solve runs the same
elementwise update sequence on halo-padded slabs whose ghost layers wrap
periodically on every axis, exactly like the global solver's ``np.roll``
differences; only interior cells are retained.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from repro.domain.decomposition import Decomposition, Subdomain
from repro.domain.halo import B_FIELDS, E_FIELDS, EM_FIELDS, HaloExchange
from repro.domain.migration import MigrationStats
from repro.exec import TileExecutor, map_shards
from repro.pic.grid import Grid
from repro.pic.maxwell import FDTDSolver

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import Session


def _solver_stage_shard(solvers: Sequence[FDTDSolver], method: str,
                        dt: float) -> None:
    """Executor task: run one leap-frog sub-update on a shard of slabs."""
    for solver in solvers:
        getattr(solver, method)(dt)


class DomainRuntime:
    """The decomposition and per-slab solvers attached to a ``Session``."""

    def __init__(self, session: "Session"):
        config = session.config
        self.decomposition = Decomposition(config.grid,
                                           config.domain.domains)
        self.decomposition.build_slabs(session.grid)
        self.halo = HaloExchange(self.decomposition, session.grid.periodic,
                                 session.telemetry)
        self.migration = MigrationStats(self.decomposition)
        self.solvers: List[FDTDSolver] = (
            [FDTDSolver(sub.slab, scheme=config.field_solver)
             for sub in self.decomposition.subdomains]
            if config.field_solver != "none" else []
        )

    @property
    def subdomains(self) -> List[Subdomain]:
        """The decomposition's subdomains (row-major order)."""
        return self.decomposition.subdomains

    def solve(self, grid: Grid, dt: float, executor: TileExecutor) -> None:
        """One leap-frog field update of the frame ``grid``, slab by slab.

        Each sub-update reads at most one cell past the cells it keeps,
        so an exchange before each of the three sub-updates makes every
        retained interior cell a bitwise replica of the global solver's
        update.  The slab current halos are never written or read (the
        solver's ``push_e`` reads J at the cell it updates).
        """
        frame = grid.field_arrays()
        for sub in self.subdomains:
            for name in (*EM_FIELDS, "jx", "jy", "jz"):
                sub.interior_view(getattr(sub.slab, name))[...] = \
                    frame[name][sub.global_slices]
        for names, method, sub_dt in ((E_FIELDS, "push_b", 0.5 * dt),
                                      (B_FIELDS, "push_e", dt),
                                      (E_FIELDS, "push_b", 0.5 * dt)):
            self.halo.exchange(names)
            map_shards(executor, _solver_stage_shard,
                       self.solvers, method, sub_dt)
        for sub in self.subdomains:
            for name in EM_FIELDS:
                frame[name][sub.global_slices] = \
                    sub.interior_view(getattr(sub.slab, name))
