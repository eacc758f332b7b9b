"""Halo exchange: refreshing subdomain ghost layers from their owners.

Every subdomain slab pads its interior with ``halo`` ghost cells per
side.  Each FDTD sub-update reads one cell past the cells it writes, so
before it runs the ghost layers must hold exactly the values the global
arrays would have supplied: the periodic wrap on **every** axis.  The
global solver evaluates its finite differences with periodic rolls on
all axes (non-periodic boundaries are imposed *afterwards* by
:mod:`repro.pic.boundary`), so the decomposed solve must see wrapped
ghost values even on open axes to stay bitwise identical.

The exchange sweeps the axes in a fixed order (x, then y, then z) — the
classic telescoping pattern: the x-pass copies interior cross-sections,
and each later pass copies regions that *include* the ghost layers the
earlier passes filled, so edge and corner ghosts are composed from
at most three straight copies without explicit corner messages.  All
transfers are pure array copies between slabs, so the exchanged values
are bit-exact images of the owning interiors whatever order the copies
run in.

Ghost *reduction* for deposited current — the adjoint direction,
summing ghost contributions back onto the owner — does not exist, and
neither does a clamped exchange for the particle gather: a decomposed
run gathers and deposits on the frame grid like every other run
(:mod:`repro.domain.runtime`).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.obs.registry import NULL_TELEMETRY, Telemetry

from repro.domain.decomposition import Decomposition, Subdomain

#: field-name groups commonly exchanged together
E_FIELDS = ("ex", "ey", "ez")
B_FIELDS = ("bx", "by", "bz")
EM_FIELDS = E_FIELDS + B_FIELDS

#: one copy: (destination subdomain, dest layer, source subdomain, src layer)
_CopyOp = Tuple[Subdomain, int, Subdomain, int]


class HaloExchange:
    """Refreshes the ghost layers of every subdomain slab.

    ``periodic`` is the frame grid's periodicity; the solver's ghosts
    wrap on every axis whatever it says, so the copy plan ignores it.
    """

    def __init__(self, decomposition: Decomposition,
                 periodic: Sequence[bool],
                 obs: Telemetry = NULL_TELEMETRY):
        self.decomposition = decomposition
        #: the owning run's registry (``domain.halo_exchanges``)
        self.obs = obs
        self._plan = self._build_plan()

    # ------------------------------------------------------------------
    def _build_plan(self) -> List[List[_CopyOp]]:
        """Per-axis copy lists; sources always read interior layers."""
        decomp = self.decomposition
        n_cell = decomp.grid_config.n_cell
        h = decomp.halo
        plan: List[List[_CopyOp]] = []
        for axis in range(3):
            ops: List[_CopyOp] = []
            n = n_cell[axis]
            for sub in decomp.subdomains:
                interior = sub.interior_shape[axis]
                halo_layers = list(range(0, h)) + \
                    list(range(h + interior, sub.slab_shape[axis]))
                for local in halo_layers:
                    g = sub.origin[axis] + local
                    src_cell = g % n
                    owner_pos = decomp.owner_along_axis(axis, src_cell)
                    src_index = list(sub.index)
                    src_index[axis] = owner_pos
                    src_sub = decomp.domain_at(tuple(src_index))
                    src_local = src_cell - src_sub.origin[axis]
                    ops.append((sub, local, src_sub, src_local))
            plan.append(ops)
        return plan

    @staticmethod
    def _region(axis: int, sub: Subdomain, layer: int
                ) -> Tuple[slice, slice, slice]:
        """Slab slices of one ghost/source layer for the ``axis`` pass.

        Axes already swept (``< axis``) span the full slab — their ghost
        layers are valid and must be forwarded so corners compose; axes
        not yet swept (``> axis``) are restricted to the interior.
        """
        slices: List[slice] = []
        h = sub.halo
        for a in range(3):
            if a == axis:
                slices.append(slice(layer, layer + 1))
            elif a < axis:
                slices.append(slice(None))
            else:
                slices.append(slice(h, h + sub.interior_shape[a]))
        return tuple(slices)

    # ------------------------------------------------------------------
    def exchange(self, field_names: Sequence[str]) -> None:
        """Refresh the named slab fields' ghost layers everywhere."""
        self.obs.count("domain.halo_exchanges")
        for axis in range(3):
            for sub, dest_layer, src_sub, src_layer in self._plan[axis]:
                dest_region = self._region(axis, sub, dest_layer)
                src_region = self._region(axis, src_sub, src_layer)
                for name in field_names:
                    dest = getattr(sub.slab, name)
                    src = getattr(src_sub.slab, name)
                    dest[dest_region] = src[src_region]
