"""Tests (including property-based tests) for the shape functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pic.shapes import combined_weights, shape_factors, shape_support

ORDERS = (1, 2, 3)


@pytest.mark.parametrize("order,expected", [(1, 2), (2, 3), (3, 4)])
def test_shape_support(order, expected):
    assert shape_support(order) == expected


def test_shape_support_rejects_unknown_order():
    with pytest.raises(ValueError):
        shape_support(4)


def test_shape_factors_rejects_unknown_order():
    with pytest.raises(ValueError):
        shape_factors(np.array([0.5]), 5)


@pytest.mark.parametrize("order", ORDERS)
def test_weights_shape(order):
    xi = np.linspace(0.0, 10.0, 33)
    base, weights = shape_factors(xi, order)
    assert base.shape == xi.shape
    assert weights.shape == (xi.size, order + 1)
    assert base.dtype.kind == "i"


@pytest.mark.parametrize("order", ORDERS)
@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0e3, allow_nan=False),
                min_size=1, max_size=32))
def test_weights_sum_to_one(order, positions):
    """Charge conservation of the assignment function."""
    xi = np.asarray(positions)
    _, weights = shape_factors(xi, order)
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("order", ORDERS)
@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0e3, allow_nan=False),
                min_size=1, max_size=32))
def test_weights_nonnegative(order, positions):
    xi = np.asarray(positions)
    _, weights = shape_factors(xi, order)
    assert np.all(weights >= -1e-15)


def test_cic_particle_on_node():
    base, weights = shape_factors(np.array([3.0]), 1)
    assert base[0] == 3
    np.testing.assert_allclose(weights[0], [1.0, 0.0])


def test_cic_particle_at_cell_center():
    _, weights = shape_factors(np.array([3.5]), 1)
    np.testing.assert_allclose(weights[0], [0.5, 0.5])


def test_tsc_particle_on_node_is_symmetric():
    base, weights = shape_factors(np.array([4.0]), 2)
    assert base[0] == 3
    np.testing.assert_allclose(weights[0], [0.125, 0.75, 0.125])


def test_qsp_particle_on_node():
    base, weights = shape_factors(np.array([4.0]), 3)
    assert base[0] == 3
    np.testing.assert_allclose(weights[0],
                               [1.0 / 6.0, 4.0 / 6.0, 1.0 / 6.0, 0.0], atol=1e-14)


def test_qsp_symmetry_about_cell_center():
    _, w_left = shape_factors(np.array([2.25]), 3)
    _, w_right = shape_factors(np.array([2.75]), 3)
    np.testing.assert_allclose(w_left[0], w_right[0][::-1], atol=1e-14)


@pytest.mark.parametrize("order", ORDERS)
def test_base_index_brackets_position(order):
    xi = np.array([5.3])
    base, _ = shape_factors(xi, order)
    support = shape_support(order)
    # the stencil must contain the particle's cell interval [5, 6]
    assert base[0] <= 5
    assert base[0] + support - 1 >= 5


@pytest.mark.parametrize("order", ORDERS)
def test_first_moment_reproduces_position(order):
    """The assignment function's centroid equals the particle position."""
    xi = np.array([7.3, 2.62, 9.999])
    base, weights = shape_factors(xi, order)
    support = shape_support(order)
    nodes = base[:, None] + np.arange(support)[None, :]
    centroid = (weights * nodes).sum(axis=1)
    np.testing.assert_allclose(centroid, xi, atol=1e-12)


def test_combined_weights_tensor_product():
    wx = np.array([[0.25, 0.75]])
    wy = np.array([[0.5, 0.5]])
    wz = np.array([[1.0, 0.0]])
    combined = combined_weights(wx, wy, wz)
    assert combined.shape == (1, 2, 2, 2)
    np.testing.assert_allclose(combined.sum(), 1.0)
    np.testing.assert_allclose(combined[0, 1, 0, 0], 0.75 * 0.5 * 1.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
def test_combined_weights_sum_to_one_property(x, y, z):
    for order in ORDERS:
        _, wx = shape_factors(np.array([x]), order)
        _, wy = shape_factors(np.array([y]), order)
        _, wz = shape_factors(np.array([z]), order)
        total = combined_weights(wx, wy, wz).sum()
        assert total == pytest.approx(1.0, abs=1e-12)


def _stacked_shape_factors(xi, order):
    """The column-per-temporary ``np.stack`` formulation ``shape_factors``
    replaced (it now fills one preallocated ``(n, S)`` array)."""
    if order == 1:
        base = np.floor(xi).astype(np.int64)
        d = xi - base
        return base, np.stack([1.0 - d, d], axis=-1)
    if order == 2:
        nearest = np.floor(xi + 0.5).astype(np.int64)
        delta = xi - nearest
        return nearest - 1, np.stack([0.5 * (0.5 - delta) ** 2,
                                      0.75 - delta**2,
                                      0.5 * (0.5 + delta) ** 2], axis=-1)
    cell = np.floor(xi).astype(np.int64)
    d = xi - cell
    one_minus = 1.0 - d
    return cell - 1, np.stack([
        one_minus**3 / 6.0,
        (4.0 - 6.0 * d**2 + 3.0 * d**3) / 6.0,
        (1.0 + 3.0 * d + 3.0 * d**2 - 3.0 * d**3) / 6.0,
        d**3 / 6.0], axis=-1)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("n", [0, 1, 7, 4096])
def test_preallocated_columns_are_bitwise_the_stacked_expression(order, n):
    xi = np.random.default_rng(n + order).uniform(-4.0, 40.0, n)
    expected_base, expected = _stacked_shape_factors(xi, order)
    base, weights = shape_factors(xi, order)
    assert np.array_equal(base, expected_base)
    assert base.dtype == expected_base.dtype
    assert weights.shape == expected.shape == (n, order + 1)
    assert weights.dtype == expected.dtype
    assert weights.flags.c_contiguous
    assert np.array_equal(weights, expected)
