"""Property and regression suite for the flat-index stencil engine.

The engine (:mod:`repro.pic.stencil`) replaces every ``np.add.at`` stencil
loop with single-pass ``np.bincount`` accumulation.  These tests pin it
against an ``np.add.at`` oracle (the historical triple-loop formulation)
over random positions — including periodic-wrap indices, clamped open
boundaries, batches far outside the domain and empty batches — and
assert that the executor backends remain bitwise identical through the
new path.  The generic adjoint the engine is held to on the gather side
is ``deposit_oracles.stencil_gather``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ExecutionConfig, GridConfig
from repro.exec import TileExecutor
from repro.pic.deposition.base import prepare_tile_data, scatter_tile_currents
from repro.pic.deposition.reference import (
    deposit_reference,
    deposit_rho_reference,
)
from repro.pic.deposition.rhocell import scatter_rhocell_blocks
from repro.pic.gather import gather_fields_for_tile
from repro.pic.shapes import shape_factors, shape_support
from repro.pic.stencil import (
    StencilOperator,
    _scatter,
    box_geometry,
    box_segments,
    cell_block_ids,
    scatter_flat,
    wrap_axis_indices,
)

from deposit_oracles import stencil_gather
from helpers import (
    FIELD_NAMES,
    grid_node_ids,
    make_plasma,
    random_field_grid,
    tile_holding,
)


# ----------------------------------------------------------------------
# the np.add.at oracle (the historical formulation, kept only here)
# ----------------------------------------------------------------------
def oracle_scatter(shape, periodic, xi, yi, zi, order, amplitude):
    """Triple-loop np.add.at scatter — the reference the engine replaced."""
    out = np.zeros(shape)
    bx, wx = shape_factors(xi, order)
    by, wy = shape_factors(yi, order)
    bz, wz = shape_factors(zi, order)
    support = shape_support(order)
    for i in range(support):
        gx = wrap_axis_indices(bx + i, shape[0], periodic[0])
        for j in range(support):
            gy = wrap_axis_indices(by + j, shape[1], periodic[1])
            wij = wx[:, i] * wy[:, j]
            for k in range(support):
                gz = wrap_axis_indices(bz + k, shape[2], periodic[2])
                # product association matches the historical kernel
                # (w = wij * wz, then amplitude * w), so single-contribution
                # nodes are bitwise identical to the engine
                np.add.at(out, (gx, gy, gz), amplitude * (wij * wz[:, k]))
    return out


def oracle_gather(shape, periodic, field, xi, yi, zi, order):
    """Triple-loop gather — the adjoint oracle."""
    bx, wx = shape_factors(xi, order)
    by, wy = shape_factors(yi, order)
    bz, wz = shape_factors(zi, order)
    support = shape_support(order)
    result = np.zeros(xi.shape[0])
    for i in range(support):
        gx = wrap_axis_indices(bx + i, shape[0], periodic[0])
        for j in range(support):
            gy = wrap_axis_indices(by + j, shape[1], periodic[1])
            wij = wx[:, i] * wy[:, j]
            for k in range(support):
                gz = wrap_axis_indices(bz + k, shape[2], periodic[2])
                result += wij * wz[:, k] * field[gx, gy, gz]
    return result


def _random_batch(rng, shape, n, out_of_domain=False):
    """Grid-normalised positions; optionally far outside the domain."""
    lo, hi = (-1.5 * max(shape), 2.5 * max(shape)) if out_of_domain \
        else (0.0, 1.0)
    xi = rng.uniform(lo, hi if out_of_domain else shape[0], n)
    yi = rng.uniform(lo, hi if out_of_domain else shape[1], n)
    zi = rng.uniform(lo, hi if out_of_domain else shape[2], n)
    amplitude = rng.normal(0.0, 1.0, n)
    return xi, yi, zi, amplitude


def oracle_node_ids(shape, periodic, bx, by, bz, support):
    """Flat grid node id of every stencil point, per particle, wrapped or
    clamped point by point — the loops' addressing."""
    axes = [wrap_axis_indices(base[:, None] + np.arange(support), n, wrap)
            for base, n, wrap in zip((bx, by, bz), shape, periodic)]
    return ((axes[0][:, :, None, None] * shape[1]
             + axes[1][:, None, :, None]) * shape[2]
            + axes[2][:, None, None, :]).reshape(len(bx), -1)


def assert_box_is_bounded(op, support):
    """However far out its batch, a box spans at most the domain plus
    the stencil: ``n + support`` cells on a periodic axis (bases reduced
    into ``[0, n)``), ``n + 2 * support`` on an open one (bases clipped
    into ``[-support, n]``)."""
    for dim, n, wrap in zip(op.box_dims, op.shape, op.periodic):
        assert dim <= n + (support if wrap else 2 * support)


def _random_shape_data(rng, shape, n, order):
    """In-domain per-axis base indices and 1-D weights of ``n`` particles."""
    bases, weights = zip(*(shape_factors(rng.uniform(0.0, s, n), order)
                           for s in shape))
    return bases + weights


_shapes = st.tuples(st.integers(2, 7), st.integers(2, 7), st.integers(2, 7))
_periodics = st.tuples(st.booleans(), st.booleans(), st.booleans())


class TestScatterProperty:
    @settings(max_examples=40, deadline=None)
    @given(shape=_shapes, periodic=_periodics,
           order=st.sampled_from([1, 2, 3]), n=st.integers(0, 120),
           seed=st.integers(0, 2**31), out_of_domain=st.booleans())
    def test_matches_addat_oracle(self, shape, periodic, order, n, seed,
                                  out_of_domain):
        """Element-wise equality with the oracle within ulp-scale bounds,
        over periodic wraps, clamped boundaries, batches far outside the
        domain (through the same bounded box) and empty batches."""
        rng = np.random.default_rng(seed)
        xi, yi, zi, amplitude = _random_batch(rng, shape, n, out_of_domain)
        expected = oracle_scatter(shape, periodic, xi, yi, zi, order,
                                  amplitude)
        out = np.zeros(shape)
        op = StencilOperator.for_box(shape, periodic, xi, yi, zi, order)
        assert_box_is_bounded(op, shape_support(order))
        op.scatter(amplitude, out)
        # ulp-scale bound per node: reassociating a node's sum errs by at
        # most ~K*eps relative to its positive-mass bound (the same sum
        # with |amplitude|), which stays meaningful under cancellation
        bound = oracle_scatter(shape, periodic, xi, yi, zi, order,
                               np.abs(amplitude))
        tol = 64 * np.finfo(float).eps * (bound + bound.max())
        np.testing.assert_array_less(np.abs(out - expected), tol + 1e-300)
        # conservation: the engine deposits exactly the oracle's total mass
        # (each particle's weights sum to 1 along every axis)
        np.testing.assert_allclose(out.sum(), amplitude.sum(), rtol=1e-12,
                                   atol=1e-12 * (np.abs(amplitude).sum() or 1))

    @settings(max_examples=40, deadline=None)
    @given(shape=_shapes, periodic=_periodics,
           order=st.sampled_from([1, 2, 3]), n=st.integers(0, 120),
           seed=st.integers(0, 2**31))
    def test_gather_matches_oracle(self, shape, periodic, order, n, seed):
        rng = np.random.default_rng(seed)
        xi, yi, zi, _ = _random_batch(rng, shape, n)
        field = rng.normal(0.0, 1.0, shape)
        expected = oracle_gather(shape, periodic, field, xi, yi, zi, order)
        got = stencil_gather(
            StencilOperator.for_box(shape, periodic, xi, yi, zi, order),
            field)
        bound = oracle_gather(shape, periodic, np.abs(field), xi, yi, zi,
                              order)
        tol = 64 * np.finfo(float).eps * (bound + (bound.max() if n else 0.0))
        np.testing.assert_array_less(np.abs(got - expected), tol + 1e-300)

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("periodic", [(True, True, True),
                                          (False, False, False)])
    def test_single_interior_particle_is_exact(self, order, periodic):
        """With one interior particle every node receives exactly one
        contribution, so the summation order is unchanged and the engine
        must equal the oracle bitwise."""
        shape = (8, 8, 8)
        xi = np.array([3.37]); yi = np.array([4.81]); zi = np.array([2.06])
        amplitude = np.array([0.731])
        expected = oracle_scatter(shape, periodic, xi, yi, zi, order,
                                  amplitude)
        out = np.zeros(shape)
        StencilOperator.for_box(shape, periodic, xi, yi, zi,
                                order).scatter(amplitude, out)
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("order", [1, 3])
    def test_periodic_wrap_at_domain_edge(self, order):
        """A particle whose stencil straddles the upper corner wraps."""
        shape = (4, 4, 4)
        xi = np.array([3.75]); yi = np.array([3.75]); zi = np.array([3.75])
        amplitude = np.array([1.0])
        expected = oracle_scatter(shape, (True,) * 3, xi, yi, zi, order,
                                  amplitude)
        out = np.zeros(shape)
        StencilOperator.for_box(shape, (True,) * 3, xi, yi, zi,
                                order).scatter(amplitude, out)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)
        assert out[0].sum() > 0.0  # weight really crossed the boundary

    def test_clamped_boundary_accumulates_on_edge_plane(self):
        """On an open axis the out-of-range stencil nodes clamp to the
        boundary plane instead of wrapping."""
        shape = (4, 4, 4)
        xi = np.array([0.05]); yi = np.array([2.0]); zi = np.array([2.0])
        amplitude = np.array([1.0])
        periodic = (False, True, True)
        expected = oracle_scatter(shape, periodic, xi, yi, zi, 3, amplitude)
        out = np.zeros(shape)
        StencilOperator.for_box(shape, periodic, xi, yi, zi, 3).scatter(
            amplitude, out)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)
        assert out[-1].sum() == pytest.approx(0.0, abs=1e-300)

    @pytest.mark.parametrize("periodic", [(True, True, True),
                                          (False, True, False)])
    def test_axis_shorter_than_support_wraps_exactly(self, periodic):
        """Regression: a periodic axis shorter than the stencil support
        must wrap overhanging segments by as many periods as needed —
        the box decomposition emits one segment per period crossed."""
        rng = np.random.default_rng(1)
        shape = (2, 3, 2)
        n = 60
        xi = rng.uniform(-1.2, shape[0] + 1.2, n)
        yi = rng.uniform(-1.2, shape[1] + 1.2, n)
        zi = rng.uniform(-1.2, shape[2] + 1.2, n)
        amplitude = rng.normal(size=n)
        expected = oracle_scatter(shape, periodic, xi, yi, zi, 3, amplitude)
        op = StencilOperator.for_box(shape, periodic, xi, yi, zi, 3)
        out = np.zeros(shape)
        op.scatter(amplitude, out)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)
        field = rng.normal(size=shape)
        np.testing.assert_allclose(
            stencil_gather(op, field),
            oracle_gather(shape, periodic, field, xi, yi, zi, 3),
            rtol=1e-12, atol=1e-12)

    def test_empty_batch_is_noop(self):
        out = np.zeros((4, 4, 4))
        op = StencilOperator.for_box((4, 4, 4), (True,) * 3, np.empty(0),
                                     np.empty(0), np.empty(0), 1)
        op.scatter(np.empty(0), out)
        assert not out.any()
        assert stencil_gather(op, out).shape == (0,)

    def test_empty_batch_guards(self):
        """An empty staging builds ``(0, S^3)`` ids and weights, and an
        empty flat scatter leaves its target untouched."""
        empty_i = np.empty((0,), dtype=np.int64)
        empty_w = np.empty((0, 2))
        op = StencilOperator.from_shape_data(
            (4, 4, 4), (True,) * 3, empty_i, empty_i, empty_i,
            empty_w, empty_w, empty_w)
        assert op.flat_ids.shape == (0, 8) and op.weights.shape == (0, 8)
        out = np.zeros((2, 2, 2))
        scatter_flat(np.empty((0, 8), dtype=np.int64), np.empty((0, 8)), out)
        assert not out.any()


class TestBlockGatherProperty:
    """The per-step gather (``gather_fields_for_tile``: cell-grouped
    block products) against the same loop oracle as the engine."""

    @settings(max_examples=60, deadline=None)
    @given(shape=_shapes, periodic=_periodics,
           order=st.sampled_from([1, 2, 3]), n=st.integers(0, 120),
           seed=st.integers(0, 2**31), overhang=st.booleans(),
           cell_sorted=st.booleans())
    def test_matches_loop_oracle(self, shape, periodic, order, n, seed,
                                 overhang, cell_sorted):
        """Every periodic/open mix, axes shorter than the support,
        positions up to a cell outside the domain (the wrapped/clamped
        box), empty tiles, cell-sorted and shuffled storage order —
        within ``64 eps sum|w F|`` of the triple loop."""
        rng = np.random.default_rng(seed)
        grid = random_field_grid(shape, periodic, rng)
        if overhang:
            xi, yi, zi = (rng.uniform(-1.0, s + 0.99, n) for s in shape)
        else:
            xi, yi, zi, _ = _random_batch(rng, shape, n)
        if cell_sorted:
            keep = np.lexsort((np.floor(zi), np.floor(yi), np.floor(xi)))
            xi, yi, zi = xi[keep], yi[keep], zi[keep]
        # within a stencil width of the domain the bases are kept as is
        bases = tuple(shape_factors(c, order)[0] for c in (xi, yi, zi))
        kept, _, _ = box_geometry(shape, periodic, *bases,
                                  shape_support(order))
        assert all(a is b for a, b in zip(kept, bases))
        tile = tile_holding(grid, xi, yi, zi)
        got = gather_fields_for_tile(grid, tile, order)
        assert len(got) == 6
        for name, values in zip(FIELD_NAMES, got):
            field = getattr(grid, name)
            expected = oracle_gather(shape, periodic, field, xi, yi, zi,
                                     order)
            bound = oracle_gather(shape, periodic, np.abs(field), xi, yi,
                                  zi, order)
            tol = 64 * np.finfo(float).eps \
                * (bound + (bound.max() if n else 0.0))
            assert values.shape == (n,)
            np.testing.assert_array_less(np.abs(values - expected),
                                         tol + 1e-300)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_far_out_of_domain_batch_takes_the_box_path(self, order):
        """A batch reaching more than a stencil width outside the domain
        has its bases brought into range: its box stays bounded, and the
        block gather and the engine's scatter still match the loop and
        ``np.add.at`` oracles."""
        rng = np.random.default_rng(40 + order)
        shape, periodic = (5, 4, 6), (True, False, True)
        support = shape_support(order)
        grid = random_field_grid(shape, periodic, rng)
        xi, yi, zi, amplitude = _random_batch(rng, shape, 50,
                                              out_of_domain=True)
        op = StencilOperator.for_box(shape, periodic, xi, yi, zi, order)
        assert_box_is_bounded(op, support)
        out = np.zeros(shape)
        op.scatter(amplitude, out)
        bound = oracle_scatter(shape, periodic, xi, yi, zi, order,
                               np.abs(amplitude))
        np.testing.assert_array_less(
            np.abs(out - oracle_scatter(shape, periodic, xi, yi, zi, order,
                                        amplitude)),
            64 * np.finfo(float).eps * (bound + bound.max()) + 1e-300)
        tile = tile_holding(grid, xi, yi, zi)
        for name, values in zip(FIELD_NAMES,
                                gather_fields_for_tile(grid, tile, order)):
            field = getattr(grid, name)
            expected = oracle_gather(shape, periodic, field, xi, yi, zi,
                                     order)
            bound = oracle_gather(shape, periodic, np.abs(field), xi, yi,
                                  zi, order)
            tol = 64 * np.finfo(float).eps * (bound + bound.max())
            np.testing.assert_array_less(np.abs(values - expected),
                                         tol + 1e-300)


# ----------------------------------------------------------------------
# the engine's pieces against per-particle loops: the box ids and
# weights, the flat scatter (bit for bit: it adds in input order), the
# three-component current scatter and the box's boundary segments
# ----------------------------------------------------------------------
class TestScatterKernel:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_build_weights_bitwise(self, order):
        """Box ids ``((x - lo_x) * dy + y - lo_y) * dz + z - lo_z`` and
        weights ``wx * wy * wz`` per stencil point, ``(i, j, k)``
        row-major, equal a per-particle loop bit for bit."""
        rng = np.random.default_rng(order)
        shape = (6, 7, 5)
        bx, by, bz, wx, wy, wz = _random_shape_data(rng, shape, 80, order)
        op = StencilOperator.from_shape_data(shape, (True,) * 3,
                                             bx, by, bz, wx, wy, wz)
        lo, dims = op.box_lo, op.box_dims
        assert lo == (bx.min(), by.min(), bz.min())
        support = shape_support(order)
        ids = np.empty((80, support**3), dtype=np.int64)
        weights = np.empty((80, support**3))
        for p in range(80):
            m = 0
            for i in range(support):
                for j in range(support):
                    for k in range(support):
                        ids[p, m] = ((bx[p] + i - lo[0]) * dims[1]
                                     + by[p] + j - lo[1]) * dims[2] \
                            + bz[p] + k - lo[2]
                        weights[p, m] = wx[p, i] * wy[p, j] * wz[p, k]
                        m += 1
        assert np.array_equal(op.flat_ids, ids)
        assert np.array_equal(op.weights, weights)

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("with_amplitude", [False, True])
    def test_scatter_bitwise(self, order, with_amplitude):
        rng = np.random.default_rng(10 + order)
        shape = (6, 6, 6)
        op = StencilOperator.from_shape_data(
            shape, (True,) * 3, *_random_shape_data(rng, shape, 70, order))
        size = int(np.prod(op.box_dims))
        amplitude = rng.normal(size=70) if with_amplitude else None
        expected = np.zeros(size)
        for p in range(70):
            for node, weight in zip(op.flat_ids[p], op.weights[p]):
                expected[node] += weight if amplitude is None \
                    else amplitude[p] * weight
        got = _scatter(op.flat_ids, op.weights, amplitude, size)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_tile_currents_are_three_componentwise_scatters(self, order):
        """The current deposit is one amplitude scatter per component
        over the shared stencil, bit for bit."""
        config = GridConfig(n_cell=(6, 6, 6), hi=(6.0e-6,) * 3,
                            tile_size=(6, 6, 6))
        grid, container = make_plasma(config, ppc=(2, 2, 2),
                                      seed=20 + order)
        [tile] = container.nonempty_tiles()
        data = prepare_tile_data(grid, tile, -1.6e-19, order)
        scatter_tile_currents(grid, data)
        op = StencilOperator.from_shape_data(
            grid.shape, grid.periodic, data.base_x, data.base_y,
            data.base_z, data.wx, data.wy, data.wz)
        for amplitude, current in zip((data.wqx, data.wqy, data.wqz),
                                      grid.current_arrays()):
            expected = np.zeros(grid.shape)
            op.scatter(amplitude, expected)
            assert current.any() and np.array_equal(current, expected)

    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("periodic", [(True, True, True),
                                          (False, True, False)],
                             ids=["periodic", "mixed"])
    def test_far_bases_address_the_nodes_of_their_images(self, order,
                                                         periodic):
        """Bases moved whole periods away on periodic axes, and past the
        clamp on open axes, address exactly the grid nodes of their
        in-range images, so both scatter and gather the same sums — on
        an axis shorter than the QSP support too."""
        rng = np.random.default_rng(30 + order)
        shape = (3, 5, 6)
        support = shape_support(order)
        bx, by, bz, wx, wy, wz = _random_shape_data(rng, shape, 60, order)
        images, far = [], []
        for base, n, wrap in zip((bx, by, bz), shape, periodic):
            if wrap:
                image = base
                moved = base + n * rng.integers(-9, 10, base.shape)
            else:
                # below -support every node clamps to 0, at or above n
                # every node clamps to n - 1
                side = rng.integers(0, 3, base.shape)
                image = np.select([side == 0, side == 1],
                                  [np.full_like(base, -support),
                                   np.full_like(base, n)], base)
                moved = np.select([side == 0, side == 1],
                                  [-support - rng.integers(1, 50, base.shape),
                                   n + rng.integers(1, 50, base.shape)],
                                  base)
            images.append(image)
            far.append(moved)
        ops = [StencilOperator.from_shape_data(shape, periodic, *bases,
                                               wx, wy, wz)
               for bases in (images, far)]
        assert_box_is_bounded(ops[1], support)
        assert np.array_equal(grid_node_ids(ops[0]), grid_node_ids(ops[1]))
        amplitude = rng.normal(size=60)
        field = rng.normal(size=shape)
        outs = []
        for op in ops:
            out = np.zeros(shape)
            op.scatter(amplitude, out)
            outs.append(out)
        np.testing.assert_allclose(outs[0], outs[1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(stencil_gather(ops[0], field),
                                   stencil_gather(ops[1], field),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("out_shape", [(24,), (6, 4), (2, 3, 4)])
    def test_scatter_flat_adds_into_the_raveled_target(self, out_shape):
        """Ids address ``out``'s row-major raveled view whatever its
        rank, repeated ids add up, and what ``out`` held is kept."""
        rng = np.random.default_rng(len(out_shape))
        ids = rng.integers(0, 24, (30, 8))
        weights = rng.normal(size=(30, 8))
        out = rng.normal(size=out_shape)
        expected = out.reshape(-1).copy()
        np.add.at(expected, ids.ravel(), weights.ravel())
        scatter_flat(ids, weights, out)
        np.testing.assert_allclose(out.reshape(-1), expected,
                                   rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("lo, dim, n, periodic, expected", [
        (1, 3, 6, False, [(0, 3, 1, 4, False)]),
        (-1, 4, 6, False, [(0, 1, 0, 1, True), (1, 4, 0, 3, False)]),
        (4, 4, 6, False, [(0, 2, 4, 6, False), (2, 4, 5, 6, True)]),
        (-2, 7, 2, False, [(0, 2, 0, 1, True), (2, 4, 0, 2, False),
                           (4, 7, 1, 2, True)]),
        (-1, 4, 6, True, [(0, 1, 5, 6, False), (1, 4, 0, 3, False)]),
        (4, 5, 6, True, [(0, 2, 4, 6, False), (2, 5, 0, 3, False)]),
        (-1, 5, 2, True, [(0, 1, 1, 2, False), (1, 3, 0, 2, False),
                          (3, 5, 0, 2, False)]),
    ], ids=["open-interior", "open-below", "open-above", "open-both",
            "periodic-below", "periodic-above", "periodic-multiwrap"])
    def test_box_segments(self, lo, dim, n, periodic, expected):
        """One box axis ``[lo, lo + dim)`` split into grid segments:
        periodic axes wrap once per period crossed, open axes collapse
        their overhangs onto the boundary plane."""
        segments = box_segments((lo, 0, 0), (dim, 1, 1), (n, 1, 1),
                                (periodic, True, True))[0]
        assert [(b.start, b.stop, g.start, g.stop, collapse)
                for b, g, collapse in segments] == expected


class TestFlatIds:
    @pytest.mark.parametrize("out_of_domain", [False, True],
                             ids=["in-domain", "far-out"])
    def test_flat_ids_address_the_loops_nodes(self, out_of_domain):
        """The box ids, read through the box's wrapped/clamped node
        map, address exactly the nodes the loops wrap or clamp to point
        by point — near the domain and far outside it."""
        rng = np.random.default_rng(11)
        shape = (5, 6, 7)
        for periodic in [(True,) * 3, (False, True, False)]:
            xi, yi, zi, _ = _random_batch(rng, shape, 80, out_of_domain)
            bx, by, bz = (shape_factors(c, 3)[0] for c in (xi, yi, zi))
            op = StencilOperator.from_bases(shape, periodic, bx, by, bz, 4)
            assert_box_is_bounded(op, 4)
            assert np.array_equal(
                grid_node_ids(op),
                oracle_node_ids(shape, periodic, bx, by, bz, 4))

    def test_out_of_range_bases_take_the_box_path(self):
        op = StencilOperator.from_bases((4, 4, 4), (True,) * 3,
                                        np.array([97]), np.array([0]),
                                        np.array([0]), 2)
        # 97 mod 4: the box starts at node 1 and spans the stencil only
        assert op.box_lo == (1, 0, 0) and op.box_dims == (2, 2, 2)
        out = np.zeros((4, 4, 4))
        op.scatter_values(np.ones((1, 8)), out)
        assert out.sum() == pytest.approx(8.0)
        assert out[1:3, 0:2, 0:2].sum() == pytest.approx(8.0)

    def test_cell_block_ids_layout(self):
        ids = cell_block_ids(np.array([2, 0]), 4)
        assert ids.tolist() == [[8, 9, 10, 11], [0, 1, 2, 3]]


class TestConsumers:
    def test_rhocell_buffer_accumulate_matches_addat(self):
        rng = np.random.default_rng(3)
        n, cells, nodes = 40, 6, 8
        cell_ids = rng.integers(0, cells, n)
        cx = rng.normal(size=(n, nodes))
        cy = rng.normal(size=(n, nodes))
        cz = rng.normal(size=(n, nodes))
        blocks = scatter_rhocell_blocks(cell_ids, cells, cx, cy, cz)
        for got, contrib in zip(blocks, (cx, cy, cz)):
            expected = np.zeros((cells, nodes))
            np.add.at(expected, cell_ids, contrib)
            np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-13)


# ----------------------------------------------------------------------
# executor parity through the new path
# ----------------------------------------------------------------------
class TestExecutorBitwiseParity:
    @pytest.mark.parametrize("order", [1, 3])
    def test_backends_bitwise_identical(self, order):
        """serial/threads backends produce bitwise-identical
        currents and charge through the flat-index scatter, including on
        a clamped (non-periodic) domain."""
        config = GridConfig(
            n_cell=(8, 8, 8), hi=(8.0e-6,) * 3, tile_size=(4, 4, 4),
            field_boundary=("pec", "periodic", "periodic"),
            particle_boundary=("absorbing", "periodic", "periodic"),
        )
        results = {}
        for name in ("serial", "threads"):
            executor = TileExecutor(ExecutionConfig(name, 3))
            grid, container = make_plasma(config, ppc=(2, 2, 2), seed=5)
            with executor:
                deposit_reference(grid, container, order, executor=executor)
                deposit_rho_reference(grid, container, order,
                                      executor=executor)
            results[name] = (grid.jx.copy(), grid.jy.copy(), grid.jz.copy(),
                             grid.rho.copy())
        for ref, got in zip(results["serial"], results["threads"]):
            assert np.array_equal(ref, got)

    def test_sharded_matches_inline_through_stencil(self):
        grid_inline, container = make_plasma(
            GridConfig(n_cell=(8, 8, 8), hi=(8.0e-6,) * 3,
                       tile_size=(4, 4, 4)), ppc=(2, 2, 2), seed=9)
        deposit_reference(grid_inline, container, 3)

        grid_sharded, container = make_plasma(
            GridConfig(n_cell=(8, 8, 8), hi=(8.0e-6,) * 3,
                       tile_size=(4, 4, 4)), ppc=(2, 2, 2), seed=9)
        with TileExecutor(ExecutionConfig()) as executor:
            deposit_reference(grid_sharded, container, 3, executor=executor)
        assert np.array_equal(grid_inline.jx, grid_sharded.jx)

