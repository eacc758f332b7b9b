"""Cross-subdomain particle-migration accounting.

Particle *tiles* are the unit of ownership: a particle belongs to the
subdomain that owns its tile, so migrating a particle between subdomains
is exactly the existing tile redistribution
(:meth:`repro.pic.particles.ParticleContainer.redistribute`) landing it
in a tile owned by a different subdomain.  No second scan is needed —
the redistribution's serial apply phase (ascending source-tile order,
which is what keeps destination storage order backend-independent)
reports every move through its ``move_recorder`` hook, and this module
classifies the moves against the decomposition's tile-owner map.
"""

from __future__ import annotations

import numpy as np

from repro.domain.decomposition import Decomposition


class MigrationStats:
    """Counts tile-level moves and subdomain crossings per run."""

    def __init__(self, decomposition: Decomposition):
        self.decomposition = decomposition
        #: particles that changed tile (any distance)
        self.moved_particles = 0
        #: particles whose destination tile lies in another subdomain
        self.migrated_particles = 0
        #: migrations per (source domain, destination domain) pair
        self.pair_counts: np.ndarray = np.zeros(
            (decomposition.num_domains, decomposition.num_domains),
            dtype=np.int64,
        )

    # ------------------------------------------------------------------
    def recorder(self, source_tile_id: int, owner_tile_ids: np.ndarray
                 ) -> None:
        """``move_recorder`` callback for ``ParticleContainer.redistribute``."""
        owner_tile_ids = np.asarray(owner_tile_ids)
        self.moved_particles += int(owner_tile_ids.shape[0])
        tile_owner = self.decomposition.tile_owner
        src_domain = int(tile_owner[source_tile_id])
        dest_domains = tile_owner[owner_tile_ids]
        crossing = dest_domains != src_domain
        n_crossing = int(np.count_nonzero(crossing))
        if n_crossing:
            self.migrated_particles += n_crossing
            dests, counts = np.unique(dest_domains[crossing],
                                      return_counts=True)
            self.pair_counts[src_domain, dests] += counts

    def reset(self) -> None:
        """Zero every counter (benchmark warm-up)."""
        self.moved_particles = 0
        self.migrated_particles = 0
        self.pair_counts.fill(0)
