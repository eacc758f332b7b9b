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

from repro.pic.boundary import FieldBoundaryStage
from repro.pic.laser import LaserStage
from repro.pic.maxwell import FieldSolveStage
from repro.pic.moving_window import MovingWindowStage
from repro.pic.pusher import GatherPushStage

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
    """Pipeline stage: particle boundary conditions + tile redistribution
    (:meth:`~repro.pic.particles.ParticleContainer.redistribute` does both).

    It runs after the moving window: its absorbing wall at the new
    ``grid.lo`` drops what the window left behind, and its regroup
    re-tiles the shift, so every particle's cell lies in its tile's box
    when ``deposit`` runs.  A decomposed run migrates the same way: its
    subdomains own no particles.
    """

    name = "migrate"
    bucket = "boundary_redistribute"
    reads = frozenset({
        "containers.position", "containers.membership", "grid.geometry",
        "executor",
    })
    writes = frozenset({
        "containers.position", "containers.membership", "telemetry",
    })

    def run(self, session) -> None:
        telemetry = session.telemetry
        for container in session.containers:
            moved = container.redistribute(session.grid,
                                           executor=session.executor)
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
        "config", "deposition", "step_index",
    })
    writes = frozenset({"grid.currents", "deposition_counters"})

    def run(self, session) -> None:
        grid = session.grid
        grid.zero_currents()
        for container in session.containers:
            counters = session.deposition.run_step(
                grid, container, session.config.shape_order,
                session.step_index, executor=session.executor,
            )
            if counters is not None:
                session.deposition_counters.merge(counters)
