"""The stages that span several components.

Most stage adapters live next to the physics they wrap
(:class:`repro.pic.pusher.GatherPushStage`,
:class:`repro.pic.maxwell.FieldSolveStage`, ...); this module holds the
stages that span several components — the particle boundary/migration
scan and the pluggable deposition step — and re-exports the
component-owned ones so ``repro.pipeline`` is the single catalogue of
the stage vocabulary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.pic.boundary import FieldBoundaryStage
from repro.pic.laser import LaserStage
from repro.pic.maxwell import FieldSolveStage
from repro.pic.moving_window import MovingWindowStage
from repro.pic.pusher import GatherPushStage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.core import StageContext

__all__ = [
    "DepositStage",
    "FieldBoundaryStage",
    "FieldSolveStage",
    "GatherPushStage",
    "LaserStage",
    "MigrateStage",
    "MovingWindowStage",
]


class MigrateStage:
    """Pipeline stage: particle boundary conditions + tile redistribution.

    Tiles are statically owned by subdomains on a decomposed run, so a
    cross-subdomain migration is just a tile move whose destination
    belongs to another block — the only difference is the
    migration-statistics recorder the domain runtime hangs on the scan.
    """

    name = "migrate"
    bucket = "boundary_redistribute"
    reads = frozenset({
        "containers.position", "containers.membership", "grid.geometry",
        "executor", "domain.migration",
    })
    writes = frozenset({
        "containers.position", "containers.membership", "domain.migration",
        "telemetry",
    })

    def run(self, ctx: "StageContext") -> None:
        domain = ctx.domain
        recorder = domain.migration.recorder if domain is not None else None
        telemetry = ctx.telemetry
        for container in ctx.containers:
            container.apply_boundary_conditions(ctx.grid,
                                                executor=ctx.executor)
            moved = container.redistribute(ctx.grid, executor=ctx.executor,
                                           move_recorder=recorder)
            telemetry.count("particles.migrated", moved)


class DepositStage:
    """Pipeline stage: pluggable current deposition on the global grid.

    Zeroes the grid currents, runs the installed
    :class:`~repro.pic.simulation.DepositionStrategy` for every species
    and merges any returned hardware counters — exactly the
    pre-pipeline deposition block.
    """

    name = "deposit"
    bucket = "current_deposition"
    reads = frozenset({
        "containers.position", "containers.momentum",
        "containers.membership", "grid.geometry", "executor",
        "simulation.deposition", "step_index",
    })
    writes = frozenset({
        "grid.currents", "simulation.deposition_counters",
    })

    def run(self, ctx: "StageContext") -> None:
        simulation = ctx.simulation
        grid = ctx.grid
        grid.zero_currents()
        for container in ctx.containers:
            counters = simulation.deposition.run_step(
                grid, container, simulation.config.shape_order,
                simulation.step_index, executor=ctx.executor,
            )
            if counters is not None:
                simulation.deposition_counters.merge(counters)
