"""Tests for the physical constants and plasma-parameter helpers."""

import math

import pytest

from repro import constants


def test_epsilon_mu_c_consistency():
    assert constants.EPSILON_0 * constants.MU_0 * constants.C_LIGHT**2 == pytest.approx(1.0)


def test_electron_charge_sign():
    assert constants.Q_ELECTRON < 0.0
    assert constants.Q_PROTON == pytest.approx(-constants.Q_ELECTRON)


def test_plasma_frequency_scales_with_sqrt_density():
    f1 = constants.plasma_frequency(1.0e24)
    f4 = constants.plasma_frequency(4.0e24)
    assert f4 == pytest.approx(2.0 * f1)


def test_plasma_frequency_known_value():
    # omega_p of 1e25 m^-3 electrons is about 1.78e14 rad/s
    omega = constants.plasma_frequency(1.0e25)
    assert omega == pytest.approx(1.784e14, rel=1e-3)


def test_plasma_frequency_rejects_negative_density():
    with pytest.raises(ValueError):
        constants.plasma_frequency(-1.0)


def test_plasma_wavelength_and_skin_depth_relation():
    density = 2.0e23
    assert constants.plasma_wavelength(density) == pytest.approx(
        2.0 * math.pi * constants.skin_depth(density))


def test_skin_depth_zero_density_raises():
    with pytest.raises(ValueError):
        constants.skin_depth(0.0)


def test_laser_a0_to_field_linear_in_a0():
    e1 = constants.laser_a0_to_field(1.0, 0.8e-6)
    e5 = constants.laser_a0_to_field(5.0, 0.8e-6)
    assert e5 == pytest.approx(5.0 * e1)
    # a0 = 1 at 800 nm corresponds to ~4e12 V/m
    assert e1 == pytest.approx(4.0e12, rel=0.05)

