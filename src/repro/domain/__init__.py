"""Domain-decomposed stepping (:class:`Decomposition` + halo exchange).

The grid is partitioned into an axis-aligned ``(px, py, pz)`` block of
subdomains, each owning its interior cells plus a ghost/halo ring sized
by the field stencil and the deposition support.  Field gather/push,
particle migration, the FDTD solve, boundary conditions, laser injection
and the moving window run per subdomain on halo-padded local arrays;
current deposition runs on the frame grid like every other run and is
copied into the slabs.  The step is **bitwise identical** to the
single-domain path at a fixed executor shard count.

* :mod:`repro.domain.decomposition` — subdomain geometry and the
  global<->local index maps,
* :mod:`repro.domain.halo` — the halo-exchange engine for field ghost
  layers,
* :mod:`repro.domain.migration` — cross-subdomain particle-migration
  accounting on top of the tile redistribution scan,
* :mod:`repro.domain.runtime` — the decomposed step loop driven by
  :class:`repro.pic.simulation.Simulation`.
"""

from repro.domain.decomposition import Decomposition, Subdomain
from repro.domain.halo import HaloExchange
from repro.domain.migration import MigrationStats
from repro.domain.runtime import DomainRuntime

__all__ = [
    "Decomposition",
    "Subdomain",
    "HaloExchange",
    "MigrationStats",
    "DomainRuntime",
]
