"""Domain-decomposed field solve (:class:`Decomposition` + halo exchange).

The grid is partitioned into an axis-aligned ``(px, py, pz)`` block of
subdomains, each owning its interior cells plus a one-cell ghost ring
(the field solver's reach).  The frame grid is the array of record for
every run — gather/push, deposition, laser, boundaries and the moving
window run on it exactly as in a single-domain run; the FDTD solve alone
runs per subdomain, on halo-padded slabs loaded from and stored back to
the frame.  The step is **bitwise identical** to the single-domain path
at a fixed executor shard count.

* :mod:`repro.domain.decomposition` — subdomain geometry and the
  global<->local index maps,
* :mod:`repro.domain.halo` — the halo-exchange engine for field ghost
  layers,
* :mod:`repro.domain.runtime` — the decomposed solve driven by the
  pipeline's solve stage.
"""

from repro.domain.decomposition import Decomposition, Subdomain
from repro.domain.halo import HaloExchange
from repro.domain.runtime import DomainRuntime

__all__ = [
    "Decomposition",
    "Subdomain",
    "HaloExchange",
    "DomainRuntime",
]
