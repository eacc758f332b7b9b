"""Tiled Structure-of-Arrays particle storage.

Particles are stored per species in a :class:`ParticleContainer`, which
splits the domain into tiles of ``particles.tile_size`` cells exactly as in
the paper (Appendix A uses 8x8x8 for the uniform plasma and 8x8x64 for the
LWFA workload).  The container holds one store per species: a float64
``(7, N)`` block (rows ``x, y, z, ux, uy, uz, w``) and an ``ids`` array,
both in tile order, plus the tile offsets.  A :class:`ParticleTile` is a
range of that store: its SoA attributes are views of its columns, and it
carries an optional ``sorter`` slot that the Matrix-PIC framework
populates with the tile's sort state (§4.3).  A tile the sorter manages
is marked ``keeps_cell_order``.

The container is also responsible for the per-step redistribution that in
WarpX happens in the particle exchange: applying the periodic/absorbing
particle boundary conditions and moving particles whose positions left
their tile into the owning tile (:meth:`ParticleContainer.redistribute`,
which states the storage-order contract the deposition's summation order
rests on).  The wrap, the absorb test and the owner scan run once per
executor shard on the shard's slice of the store; the absorbs, moves
and the moving window's refill are then one block take of the span of
the changed tiles.  Its order is a merge, not a sort of the span: the
stayers still in the cell their tile's sort state recorded before the
push are in order already, so only the cell changers, the arrivals and
the refill are sorted, and merged in.  The regroup leaves a tile that
keeps cell order and moved particles sorted by cell and hands the sorter
those cell ids (``ParticleTile.sorted_cells``), so the deposit that
follows adopts them instead of re-sorting the tile.

Consecutive non-empty tiles sit side by side in the store, so a shard or
a run of them is one slice of it (:func:`stored`), read without copying
and written in place by the push (:mod:`repro.pic.pusher`) and the wrap;
shards are disjoint slices.  Only the container changes the population:
a setup load (:meth:`ParticleContainer.add_particles`, every arrival at
its tile's end) is one pass over the store; the window's refill waits
in a pending batch (:meth:`ParticleContainer.queue_refill`) for the
migration's take, so a moving-window step moves each particle once.

The per-particle stages that do not work on a whole shard work in
*batches* of about :data:`BATCH_PARTICLES` particles, the one batch
size.  Small tiles are grouped: a *run* of a shard's consecutive tiles
is closed once it holds ``BATCH_PARTICLES`` (:func:`tile_runs`), and a
tile already holding that many is its own run.  The gather + push
(:mod:`repro.pic.pusher`) and the reference deposit
(:mod:`repro.pic.deposition.reference`) use the same runs.  Why a
threshold: the interpreter pays a fixed cost per NumPy call, which
dominates small tiles, while the run's field or current box and
temporaries grow with the batch.  Measured on ``uniform-ref`` (64 tiles
of 512 particles, seed 7, 60 steps per run size, the run sizes
alternating step by step in one process; median ms per step on a 2-core
Xeon, the fastest of three runs; 16 384 was the fastest size in each):

=====================  ======  ======  ======  ======  ======
run size (particles)    2 048   4 096   8 192  16 384  32 768
median ms per step      22.05   18.90   17.77   17.71   18.93
=====================  ======  ======  ======  ======  ======

A tile holding more than ``BATCH_PARTICLES`` is the opposite case: its
whole-tile panels and products (8-15 MB each for a 65 536-particle QSP
tile) no longer fit the core's cache, and every pass over them streams
from memory.  The gather + push and the MatrixPIC deposit
(:mod:`repro.core.mpu_deposit`) work such a tile in near-equal pieces
(:func:`piece_bounds`; the deposit cuts only between cells), each staged
and multiplied on its own (on a 2-core Xeon with 2 MB of L2 per core,
two 65 536-particle QSP tiles gather and push in 93 ms whole and 62 ms
in 16 384-particle pieces).  Both stages are per particle (or per cell)
functions, so any cut gives the same bits; the reference deposit keeps
its whole runs, whose boxes fix J's summation order.
"""

from __future__ import annotations

import functools
from typing import (
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.config import GridConfig, SpeciesConfig
from repro.exec import TileExecutor, map_shards
from repro.pic.blocks import stable_order_by_bin
from repro.pic.grid import Grid

_SOA_FIELDS = ("x", "y", "z", "ux", "uy", "uz", "w")

#: Particles one batch of the per-particle stages holds: a run of small
#: consecutive tiles is closed once it holds this many
#: (:func:`tile_runs`), and a tile above it is worked slice by slice
#: (:func:`piece_bounds`), so that a piece's staging, operand panels and
#: products stay in the core's cache (16 384 QSP particles stage about
#: 2 MB per panel).  The per-particle stages give the same bits for any
#: grouping and cut; the reference deposit's grouping fixes J's
#: summation order where runs meet.  So this is one speed constant,
#: measured (module docstring), not an option.
BATCH_PARTICLES = 16384


class ParticleTile:
    """One tile of cells and the range of its container's store it owns.

    ``x`` ... ``w`` and ``ids`` are views of that range (read-only
    attributes: write through them, never rebind them); they follow the
    store when a migration, an insert or a compaction moves the range.
    """

    def __init__(self, container: "ParticleContainer", index: int,
                 tile_index: Tuple[int, int, int],
                 cell_lo: Tuple[int, int, int],
                 cell_hi: Tuple[int, int, int]):
        self._container = container
        #: position of the tile in its container (and of its range)
        self.index = index
        self.tile_index = tile_index
        #: inclusive lower cell index of the tile box, per axis
        self.cell_lo = tuple(int(v) for v in cell_lo)
        #: exclusive upper cell index of the tile box, per axis
        self.cell_hi = tuple(int(v) for v in cell_hi)
        #: slot used by repro.core to attach the tile's sort state
        self.sorter = None
        #: set by the sorter on a tile it manages: the migration regroup
        #: leaves such a tile in cell order
        self.keeps_cell_order = False
        #: the regroup's handoff to the sorter: every particle's tile-local
        #: cell id in storage order, non-decreasing.  Valid only for the
        #: storage order and positions that regroup left, so anything that
        #: changes either drops it (permute, insert, compaction, push, wrap).
        self.sorted_cells: Optional[np.ndarray] = None
        #: ... and how many of them each tile-local cell holds, handed
        #: over and dropped with ``sorted_cells``
        self.sorted_population: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def columns(self) -> slice:
        """The tile's range of store columns."""
        offsets = self._container.offsets
        return slice(int(offsets[self.index]), int(offsets[self.index + 1]))

    @property
    def block(self) -> np.ndarray:
        """The tile's ``(7, n)`` view of the store (rows ``_SOA_FIELDS``)."""
        return self._container.block[:, self.columns]

    x = property(lambda self: self.block[0], doc="Positions along x [m].")
    y = property(lambda self: self.block[1], doc="Positions along y [m].")
    z = property(lambda self: self.block[2], doc="Positions along z [m].")
    ux = property(lambda self: self.block[3], doc="Momenta ``gamma v_x``.")
    uy = property(lambda self: self.block[4], doc="Momenta ``gamma v_y``.")
    uz = property(lambda self: self.block[5], doc="Momenta ``gamma v_z``.")
    w = property(lambda self: self.block[6], doc="Macro-particle weights.")

    @property
    def ids(self) -> np.ndarray:
        """Particle ids (view of the store)."""
        return self._container.ids[self.columns]

    @property
    def num_particles(self) -> int:
        """Number of particles currently stored in the tile."""
        offsets = self._container.offsets
        return int(offsets[self.index + 1] - offsets[self.index])

    @property
    def tile_cells(self) -> Tuple[int, int, int]:
        """Number of cells covered by the tile, per axis."""
        return tuple(h - l for l, h in zip(self.cell_lo, self.cell_hi))

    @property
    def num_cells(self) -> int:
        """Total number of cells in the tile."""
        cx, cy, cz = self.tile_cells
        return cx * cy * cz

    # ------------------------------------------------------------------
    def local_cell_ids(self, grid: Grid) -> np.ndarray:
        """Row-major cell index of each particle *within the tile*.

        Particles that have moved outside the tile box get indices computed
        from their clamped global cell, which keeps the ids in range; the
        redistribution step is responsible for relocating such particles.
        """
        ix, iy, iz = grid.cell_index(self.x, self.y, self.z)
        return self.local_ids_from_cells(ix, iy, iz)

    def local_ids_from_cells(self, ix: np.ndarray, iy: np.ndarray,
                             iz: np.ndarray) -> np.ndarray:
        """Tile-local cell ids from already-wrapped global cell indices.

        The single definition of the clip-into-tile-box convention; the
        deposition staging path calls this with its own wrapped indices
        to avoid re-normalising the positions.
        """
        cx, cy, cz = self.tile_cells
        lx = np.clip(ix - self.cell_lo[0], 0, cx - 1)
        ly = np.clip(iy - self.cell_lo[1], 0, cy - 1)
        lz = np.clip(iz - self.cell_lo[2], 0, cz - 1)
        return (lx * cy + ly) * cz + lz

    def permute(self, order: np.ndarray) -> None:
        """Reorder the tile's range of the store in place following ``order``.

        Drops the sort state: it describes the old storage order.
        """
        order = np.asarray(order, dtype=np.int64)
        if order.shape[0] != self.num_particles:
            raise ValueError("permutation length does not match particle count")
        block, ids = self.block, self.ids
        block[...] = np.take(block, order, axis=1)
        ids[...] = ids[order]
        self.drop_sort_state()

    def drop_sort_state(self) -> None:
        """Forget the sort state and the regroup's cell ids.

        Called whenever the storage order or the population changes;
        ``keeps_cell_order`` stays.
        """
        self.sorter = None
        self.drop_handoff()

    def drop_handoff(self) -> None:
        """Forget the regroup's cell ids and their population."""
        self.sorted_cells = None
        self.sorted_population = None


def stored(tiles: Sequence[ParticleTile]) -> np.ndarray:
    """The ``(7, n)`` store view of consecutive ``tiles``, in tile order.

    A shard's or a run's non-empty tiles sit side by side in their
    container's store, so their particles are one slice of it: reading
    it copies nothing, and writing into it writes the tiles' particles.
    """
    if not tiles:
        return np.empty((len(_SOA_FIELDS), 0))
    start, stop = tiles[0].columns.start, tiles[-1].columns.stop
    if sum(tile.num_particles for tile in tiles) != stop - start:
        raise ValueError("tiles are not consecutive in their store")
    return tiles[0]._container.block[:, start:stop]


def tile_runs(tiles: Sequence[ParticleTile]) -> Iterator[List[ParticleTile]]:
    """Consecutive ``tiles`` grouped into runs of ``BATCH_PARTICLES`` or
    more.

    Only the last run may hold fewer; a tile holding ``BATCH_PARTICLES``
    or more is a run of its own.
    """
    run: List[ParticleTile] = []
    held = 0
    for tile in tiles:
        if run and tile.num_particles >= BATCH_PARTICLES:
            yield run
            run, held = [], 0
        run.append(tile)
        held += tile.num_particles
        if held >= BATCH_PARTICLES:
            yield run
            run, held = [], 0
    if run:
        yield run


def piece_bounds(n: int, cuts: Optional[np.ndarray] = None) -> np.ndarray:
    """Bounds of the pieces ``n`` particles of one tile are worked in.

    ``[0, n]`` (one piece) up to ``BATCH_PARTICLES`` particles; above
    it, ``ceil(n / BATCH_PARTICLES)`` near-equal pieces.  ``cuts``, when
    given, are the ascending positions the particles may be cut at
    (e.g. where each cell's run of a cell-grouped order begins): every
    inner bound moves up to the first of them at or after it and pieces
    left empty go, so no run is cut and a piece exceeds
    ``n / pieces`` by less than one run.
    """
    pieces = max(-(-n // BATCH_PARTICLES), 1)
    bounds = np.arange(pieces + 1, dtype=np.int64) * n // pieces
    if cuts is None:
        return bounds
    allowed = np.concatenate(([0], cuts, [n]))
    return np.unique(allowed[np.searchsorted(allowed, bounds)])


def _scan(coords: np.ndarray, grid: Grid, periodic: Tuple[bool, ...],
          cell_keys: np.ndarray) -> np.ndarray:
    """Boundary conditions and owner scan of the ``x, y, z`` rows ``coords``.

    Periodic axes are wrapped in place; returns every particle's cell key
    (:attr:`ParticleContainer.cell_keys`), -1 for a particle outside an
    open axis (absorbed).
    """
    lo, hi = grid.lo, grid.hi
    absorb = np.zeros(coords.shape[1], dtype=bool)
    for axis in range(3):
        if periodic[axis]:
            # lo + mod(coords - lo, extent): np.mod costs several compares
            # and is the identity on the open interval (0, extent), so only
            # the offsets outside it go through np.mod (same bits)
            extent = hi[axis] - lo[axis]
            offset = coords[axis] - lo[axis]
            outside = ~((offset > 0.0) & (offset < extent))
            offset[outside] = np.mod(offset[outside], extent)
            np.add(lo[axis], offset, out=coords[axis])
        else:
            absorb |= (coords[axis] < lo[axis]) | (coords[axis] >= hi[axis])
    keys = cell_keys[grid.linear_cell_id(*grid.cell_index(*coords))]
    keys[absorb] = -1
    return keys


def _scan_shard(tiles: List[ParticleTile], grid: Grid,
                periodic: Tuple[bool, ...], cell_keys: np.ndarray
                ) -> np.ndarray:
    """Executor task: :func:`_scan` of one shard's slice of the store."""
    if any(periodic):
        for tile in tiles:
            tile.drop_handoff()
    return _scan(stored(tiles)[:3], grid, periodic, cell_keys)


def _kinetic_shard(tiles: List[ParticleTile], mass: float) -> float:
    """Executor task: relativistic kinetic energy of one shard of tiles."""
    from repro import constants

    total = 0.0
    c2 = constants.C_LIGHT**2
    for tile in tiles:
        u2 = tile.ux**2 + tile.uy**2 + tile.uz**2
        gamma = np.sqrt(1.0 + u2 / c2)
        total += float(np.sum(tile.w * (gamma - 1.0)) * mass * c2)
    return total


class ParticleContainer:
    """All particles of one species, split into tiles over the domain.

    One store (:attr:`block`, :attr:`ids`) in tile order, tile ``i``
    owning columns ``offsets[i]:offsets[i + 1]``; only this module
    writes the offsets or rebinds the store.
    """

    def __init__(self, grid_config: GridConfig, species: SpeciesConfig):
        self.grid_config = grid_config
        self.species = species
        self._next_id = 0
        nx, ny, nz = grid_config.n_cell
        tx, ty, tz = grid_config.tile_size
        self.tiles_per_axis = (
            -(-nx // tx), -(-ny // ty), -(-nz // tz)  # ceil division
        )
        self.tiles: List[ParticleTile] = []
        for itx in range(self.tiles_per_axis[0]):
            for ity in range(self.tiles_per_axis[1]):
                for itz in range(self.tiles_per_axis[2]):
                    lo = (itx * tx, ity * ty, itz * tz)
                    hi = (min((itx + 1) * tx, nx),
                          min((ity + 1) * ty, ny),
                          min((itz + 1) * tz, nz))
                    self.tiles.append(ParticleTile(
                        self, len(self.tiles), (itx, ity, itz), lo, hi))
        #: cells of a full tile: the stride of :attr:`cell_keys`
        self.cells_per_tile = tx * ty * tz
        #: the particle block, rows :data:`_SOA_FIELDS`, in tile order
        self.block = np.empty((len(_SOA_FIELDS), 0))
        #: particle ids, in the block's order
        self.ids = np.empty((0,), dtype=np.int64)
        #: tile ``i`` owns store columns ``offsets[i]:offsets[i + 1]``
        self.offsets = np.zeros(len(self.tiles) + 1, dtype=np.int64)
        #: the moving window's refill (block, ids, inserting tile) and the
        #: z cells it shifted, waiting for the next :meth:`redistribute`;
        #: empty outside a step
        self._clear_pending()

    @functools.cached_property
    def cell_keys(self) -> np.ndarray:
        """``tile * cells_per_tile + tile-local cell id`` of every grid cell.

        Row-major over the grid (``(ix * ny + iy) * nz + iz``), with the
        owning tile's :meth:`ParticleTile.local_ids_from_cells`: one
        lookup gives the owning tile (``key // cells_per_tile``) and the
        cell within it.  Within a tile the keys ascend in local cell
        order, so ordering particles by key groups them by tile and
        orders each tile by cell.  Built on the first migration.
        """
        keys = np.empty(self.grid_config.n_cell, dtype=np.int64)
        for tile_id, tile in enumerate(self.tiles):
            axes = [np.arange(lo, hi)
                    for lo, hi in zip(tile.cell_lo, tile.cell_hi)]
            keys[np.ix_(*axes)] = (
                tile_id * self.cells_per_tile
                + tile.local_ids_from_cells(*np.meshgrid(*axes, indexing="ij")))
        return keys.ravel()

    # ------------------------------------------------------------------
    @property
    def charge(self) -> float:
        """Charge of one physical particle of the species [C]."""
        return self.species.charge

    @property
    def mass(self) -> float:
        """Mass of one physical particle of the species [kg]."""
        return self.species.mass

    @property
    def num_particles(self) -> int:
        """Total number of macro-particles across all tiles."""
        return int(self.offsets[-1])

    def iter_tiles(self) -> Iterator[ParticleTile]:
        """Iterate over the tiles (including empty ones)."""
        return iter(self.tiles)

    def nonempty_tiles(self) -> List[ParticleTile]:
        """Tiles that currently hold at least one particle."""
        counts = np.diff(self.offsets)
        return [self.tiles[i] for i in np.flatnonzero(counts).tolist()]

    def soa_arrays(self) -> Dict[str, np.ndarray]:
        """The store by name: one view per block row, and ``ids``."""
        return {**dict(zip(_SOA_FIELDS, self.block)), "ids": self.ids}

    def load_soa(self, arrays: Dict[str, np.ndarray],
                 counts: np.ndarray) -> None:
        """Replace the store by ``arrays`` (as :meth:`soa_arrays` names
        them, copied) holding ``counts[i]`` particles of tile ``i``.

        Every tile's sort state is dropped: it predates the new store, and
        so does a pending refill (:meth:`queue_refill`), which is emptied.
        """
        self._clear_pending()
        self.block = np.array([arrays[name] for name in _SOA_FIELDS],
                              dtype=np.float64)
        self.ids = np.array(arrays["ids"], dtype=np.int64)
        self.offsets = np.concatenate(([0], np.cumsum(counts)))
        for tile in self.tiles:
            tile.drop_sort_state()

    # ------------------------------------------------------------------
    def tile_of_cell(self, ix: np.ndarray, iy: np.ndarray, iz: np.ndarray
                     ) -> np.ndarray:
        """Linear tile index owning each (ix, iy, iz) cell triple."""
        tx, ty, tz = self.grid_config.tile_size
        ntx, nty, ntz = self.tiles_per_axis
        itx = np.clip(np.asarray(ix) // tx, 0, ntx - 1)
        ity = np.clip(np.asarray(iy) // ty, 0, nty - 1)
        itz = np.clip(np.asarray(iz) // tz, 0, ntz - 1)
        return (itx * nty + ity) * ntz + itz

    def _new_particles(self, grid: Grid, x: np.ndarray, y: np.ndarray,
                       z: np.ndarray, ux: Optional[np.ndarray],
                       uy: Optional[np.ndarray], uz: Optional[np.ndarray],
                       w: Optional[np.ndarray]
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(block, ids, tile)`` of particles to add, in input order.

        Missing momenta default to zero, missing weights to one; the
        particles get the next ids, and ``tile`` is the tile owning each
        one's cell.
        """
        n = len(x)
        new = np.zeros((len(_SOA_FIELDS), n))
        new[6] = 1.0
        for row, values in enumerate((x, y, z, ux, uy, uz, w)):
            if values is not None:
                new[row] = values
        ids = np.arange(self._next_id, self._next_id + n, dtype=np.int64)
        self._next_id += n
        return new, ids, self.tile_of_cell(*grid.cell_index(*new[:3]))

    def add_particles(self, grid: Grid, *, x: np.ndarray, y: np.ndarray,
                      z: np.ndarray, ux: Optional[np.ndarray] = None,
                      uy: Optional[np.ndarray] = None,
                      uz: Optional[np.ndarray] = None,
                      w: Optional[np.ndarray] = None) -> None:
        """Add particles, routing each one to the tile that owns its cell.

        One insert into the store: each tile's arrivals follow its
        particles, in input order, and get the next ids.  Missing
        momenta default to zero, missing weights to one.
        """
        if len(x) == 0:
            return
        new, ids, tile_ids = self._new_particles(grid, x, y, z, ux, uy, uz, w)
        order = stable_order_by_bin(tile_ids, len(self.tiles))
        new, ids = np.take(new, order, axis=1), ids[order]
        arrivals = np.bincount(tile_ids, minlength=len(self.tiles))
        # the store cut at each receiving tile's end, the arrivals between
        receiving = np.flatnonzero(arrivals)
        cuts = self.offsets[receiving + 1].tolist()
        firsts = np.cumsum(arrivals[receiving]).tolist()
        pieces, id_pieces, at, first = [], [], 0, 0
        for cut, last in zip(cuts, firsts):
            pieces += [self.block[:, at:cut], new[:, first:last]]
            id_pieces += [self.ids[at:cut], ids[first:last]]
            at, first = cut, last
        self.block = np.concatenate(pieces + [self.block[:, at:]], axis=1)
        self.ids = np.concatenate(id_pieces + [self.ids[at:]])
        self.offsets[1:] += np.cumsum(arrivals)
        for tile_id in receiving.tolist():
            self.tiles[tile_id].drop_sort_state()

    def queue_refill(self, grid: Grid, shift_cells: int,
                     particles: Dict[str, np.ndarray]) -> None:
        """The moving window's refill after a shift of ``shift_cells`` z
        cells: ``particles`` (:func:`repro.pic.plasma.slab_particles`)
        join the pending batch that the next :meth:`redistribute` places.

        Ids and tiles are assigned now, exactly as :meth:`add_particles`
        would; the store is untouched until the migration, which puts
        every pending particle where that insert would have left it.
        """
        new, ids, tile_ids = self._new_particles(
            grid, *(particles.get(name) for name in _SOA_FIELDS))
        self._pending = (np.concatenate((self._pending[0], new), axis=1),
                         np.concatenate((self._pending[1], ids)),
                         np.concatenate((self._pending[2], tile_ids)))
        self._pending_shift += shift_cells

    def _expected_keys(self, tile_id: int, ordered: bool,
                       shift: int) -> np.ndarray:
        """The key each stayer of tile ``tile_id`` has if it is in
        :meth:`redistribute`'s group A, the stayers already in order.

        For a tile whose key has no cell: the tile's key (every stayer
        is in A).  For one that has: the cells on record plus the tile's
        key, lowered by the window's ``shift`` — the sort state's
        ``assigned_bins``, which describe this storage order from before
        the push — when they are in cell order.  Otherwise (no record,
        or one an incremental update left unsorted): -1, no stayer is.
        """
        n = int(self.offsets[tile_id + 1] - self.offsets[tile_id])
        tile_key = tile_id * self.cells_per_tile
        if not ordered:
            return np.full(n, tile_key, dtype=np.int64)
        record = getattr(self.tiles[tile_id].sorter, "assigned_bins", None)
        if (record is None or record.shape[0] != n
                or np.any(record[1:] < record[:-1])):
            return np.full(n, -1, dtype=np.int64)
        return record + (tile_key - shift)

    # ------------------------------------------------------------------
    def redistribute(self, grid: Grid,
                     executor: Optional[TileExecutor] = None) -> int:
        """Apply the particle boundary conditions, move particles that
        left their tile into the owning tile and place the pending
        refill (:meth:`queue_refill`).

        Returns the number of particles moved between tiles.  Periodic
        axes wrap; a particle outside an open axis is absorbed.  The
        result is bit for bit that of inserting the pending batch first
        (:meth:`add_particles`: each tile's refill after its particles,
        in input order) and then migrating the store, and a refill
        particle whose cell another tile owns counts as moved.

        The scan (wrap, absorb test, cell index + :attr:`cell_keys`
        entry, that is owning tile and cell within it, of every
        particle) runs once per shard of the ``executor`` over the
        shard's slice of the store, and once over the pending batch.
        The absorbs, moves and the refill are then one block take of the
        store's span from the first to the last changed tile (one that
        loses or gains a particle), which drops the absorbed and orders
        the rest, each tile's refill at its end, stably by the key
        ``(destination, cell, is_arrival)``, where ``cell`` is the
        particle's cell within its destination for a tile that moves
        particles and ``keeps_cell_order``, and 0 for any other.  That
        is the storage-order contract, the same for every backend.  A
        tile that does not keep cell order keeps its stayers in their
        order, followed by its refill, then its arrivals in ascending
        source-tile order, each source's in its storage order.  A tile
        that keeps cell order and moves particles ends in that order
        stably sorted by cell — bit for bit what a stable counting sort
        of it would give — and gets those cell ids as ``sorted_cells``.
        A changed tile's sort state is dropped (its population changed,
        even when its count did not); every other tile keeps its
        particles in their order and its ``sorter`` object.

        The order is a merge, not a sort of the span.  Group A, the
        stayers whose key is the one their tile's sort state recorded
        before the push (:meth:`_expected_keys`; every stayer of a tile
        whose key has no cell), is in key order already.  Group B,
        everything else kept (cell changers, arrivals, the refill, every
        stayer of a tile without a record in cell order), is sorted
        alone by ``(key, is_arrival, position)`` and each B particle
        goes after the A particles that precede it in that order (a
        ``searchsorted``).  The choice of A changes only the cost: where
        few particles change cell, the sort is small and the rest is a
        fixed number of linear passes over the span.
        """
        periodic = tuple(
            bc == "periodic" for bc in self.grid_config.particle_boundary)
        scans = map_shards(executor, _scan_shard, self.nonempty_tiles(), grid,
                           periodic, self.cell_keys)
        keys = scans[0] if len(scans) == 1 else np.concatenate(scans)
        (added, added_ids, inserted), shift = self._pending, self._pending_shift
        self._clear_pending()
        added_keys = _scan(added[:3], grid, periodic, self.cell_keys)
        span = self.cells_per_tile
        num_tiles = len(self.tiles)
        counts = np.diff(self.offsets)
        base = np.repeat(np.arange(num_tiles) * span, counts)
        # out of [0, span) for a particle that left its tile or is
        # absorbed (key -1)
        out = np.flatnonzero((keys - base).view(np.uint64) >= span)
        if out.shape[0] == 0 and inserted.shape[0] == 0:
            return 0
        out_from = np.searchsorted(self.offsets, out, side="right") - 1
        out_to = keys[out] // span  # negative: absorbed
        added_to = added_keys // span
        moving = np.zeros(num_tiles, dtype=bool)
        for source, destination in ((out_from, out_to), (inserted, added_to)):
            leaving = (destination >= 0) & (destination != source)
            moving[source[leaving]] = True
            moving[destination[leaving]] = True
        changed = moving.copy()
        changed[out_from] = True
        changed[inserted] = True
        tile_ids = np.flatnonzero(changed)
        begin, end = int(tile_ids[0]), int(tile_ids[-1]) + 1
        start, stop = int(self.offsets[begin]), int(self.offsets[end])
        ordered = moving & [tile.keeps_cell_order for tile in self.tiles]

        # every stayer's key in the span, and group A: the stayers with
        # the key on record, in key order since every record is
        keys, base = keys[start:stop], base[start:stop]
        spanned = ordered[begin:end]
        if not spanned.any():
            key, in_a = base, np.ones(stop - start, dtype=bool)
        else:
            key = keys if spanned.all() else np.where(
                np.repeat(spanned, counts[begin:end]), keys, base)
            in_a = key == np.concatenate([
                self._expected_keys(tile_id, ordered[tile_id], shift)
                for tile_id in range(begin, end)])
        in_a[out - start] = False
        a_at = np.flatnonzero(in_a)
        # group B, the rest of the span and the refill, each refill
        # particle just past its tile's last column (positions doubled),
        # and how many A particles are stored before each
        b_at = np.flatnonzero(~in_a)
        ends = self.offsets[inserted + 1] - start
        b_key = np.concatenate((keys[b_at], added_keys))
        b_from = np.concatenate((
            np.searchsorted(self.offsets, start + b_at, side="right") - 1,
            inserted))
        position = np.concatenate((2 * b_at, 2 * ends - 1))
        stored_before = np.concatenate((b_at - np.arange(b_at.shape[0]),
                                        ends - np.searchsorted(b_at, ends)))
        kept = np.flatnonzero(b_key >= 0)
        b_key, b_from = b_key[kept], b_from[kept]
        position, stored_before = position[kept], stored_before[kept]
        b_to = b_key // span
        first, keyed = begin * span, (end - begin) * span
        b_key = np.where(ordered[b_to], b_key, b_to * span) - first
        arrival = b_to != b_from
        # sort B by (key, is_arrival, position)
        order = np.argsort((2 * b_key + arrival) * (2 * (stop - start) + 2)
                           + position, kind="stable")
        b_key, arrival = b_key[order], arrival[order]
        position, stored_before = position[order], stored_before[order]
        # each B particle goes after the A particles of a lower key and,
        # unless it arrives, those of its key stored before it; A's
        # population of each key is the span's less B's stored part
        key[b_at] = first
        population = np.bincount(key - first, minlength=keyed)
        population[0] -= b_at.shape[0]
        below = np.concatenate(([0], np.cumsum(population)))
        slots = np.where(arrival, below[b_key + 1],
                         np.clip(stored_before, below[b_key], below[b_key + 1]))
        slots += np.arange(slots.shape[0])
        population += np.bincount(b_key, minlength=keyed)

        # one take of the store; what lies outside the span keeps its
        # place, and a refill particle takes column 0, overwritten after
        refill = position % 2 == 1
        held = a_at.shape[0] + slots.shape[0]
        from_a = np.ones(held, dtype=bool)
        from_a[slots] = False
        merged = np.empty(held, dtype=np.int64)
        merged[from_a] = start + a_at
        merged[slots] = np.where(refill, 0, start + position // 2)
        fresh = start + slots[refill]
        pending = kept[order[refill]] - b_at.shape[0]
        if self.ids.shape[0]:
            taken = np.concatenate((np.arange(start), merged,
                                    np.arange(stop, self.ids.shape[0])))
            self.block = np.take(self.block, taken, axis=1)
            self.ids = self.ids[taken]
        else:
            self.block = np.empty((len(_SOA_FIELDS), held))
            self.ids = np.empty((held,), dtype=np.int64)
        self.block[:, fresh] = added[:, pending]
        self.ids[fresh] = added_ids[pending]

        # the population of each key gives the offsets and the handoff
        population = population.reshape(end - begin, span)
        self.offsets[begin + 1:end + 1] = start + np.cumsum(
            population.sum(axis=1))
        self.offsets[end + 1:] += held - (stop - start)
        cells = np.arange(span)
        for tile_id in tile_ids.tolist():
            tile = self.tiles[tile_id]
            tile.drop_sort_state()
            if ordered[tile_id]:
                held = population[tile_id - begin, :tile.num_cells]
                tile.sorted_cells = np.repeat(cells[:tile.num_cells], held)
                tile.sorted_population = held
        return int(arrival.sum())

    def _clear_pending(self) -> None:
        """Empty the pending refill (:meth:`queue_refill`)."""
        self._pending = (np.empty((len(_SOA_FIELDS), 0)),
                         np.empty((0,), dtype=np.int64),
                         np.empty((0,), dtype=np.int64))
        self._pending_shift = 0

    # ------------------------------------------------------------------
    def kinetic_energy(self, executor: Optional[TileExecutor] = None
                       ) -> float:
        """Total relativistic kinetic energy of the species [J].

        With an ``executor`` the per-tile sums run one shard per task and
        the partial sums reduce in shard order (deterministic for a given
        shard count, though the reduction tree — and hence the last ulp —
        differs from the executor-less sequential sum).  Every backend
        computes the same per-shard partial sums, so the result is bitwise
        identical across backends at a fixed shard count.
        """
        return sum(map_shards(executor, _kinetic_shard,
                              self.nonempty_tiles(), self.mass), 0.0)
