"""Lorentz medium: frozen reference values and passivity."""

import dataclasses

import numpy as np
import pytest
from _dense_reference import relative_permittivity
from hypothesis import example, given
from hypothesis import strategies as st

from slabqed.medium import (
    ATOM_INSIDE,
    ATOM_OUTSIDE,
    CASE_PRESETS,
    MediumSpec,
    case_preset,
)

CASE1 = CASE_PRESETS["1"]
CASE2 = CASE_PRESETS["2"]


def test_susceptibility_on_resonance_case1():
    # at omega = omega_0 the real part of the denominator cancels exactly:
    # chi = omega_p^2 / (-i omega_0 gamma) = 100^2 / (-i 500*50) = 0.4i
    chi = CASE1.susceptibility(500.0)
    assert chi == pytest.approx(0.4j, abs=1e-14)


def test_susceptibility_on_resonance_case2():
    # same cancellation, gamma = 5: chi = 100^2 / (-i 500*5) = 4i
    chi = CASE2.susceptibility(500.0)
    assert chi == pytest.approx(4.0j, abs=1e-13)


def test_susceptibility_off_resonance_frozen_value():
    # hand evaluation at omega = 300 (case 1):
    # denom = 250000 - 90000 - 15000i, chi = 1e4 * conj/|denom|^2
    chi = CASE1.susceptibility(300.0)
    assert chi.real == pytest.approx(0.06195547, rel=1e-6)
    assert chi.imag == pytest.approx(0.005808325, rel=1e-6)


def test_static_limit():
    # omega -> 0 gives omega_p^2 / omega_0^2 = 0.04 for both damping values
    for medium in (CASE1, CASE2):
        assert medium.susceptibility(0.0) == pytest.approx(0.04, abs=1e-15)
        assert abs(medium.susceptibility(1e-6) - 0.04) < 1e-9


@pytest.mark.parametrize("medium", [CASE1, CASE2])
def test_passivity(medium):
    omega = np.linspace(1.0, 2000.0, 400)
    chi = medium.susceptibility(omega)
    assert np.all(chi.imag > 0)


def test_vectorized_matches_scalar():
    omega = np.array([300.0, 500.0, 700.0])
    chi = CASE1.susceptibility(omega)
    for w, c in zip(omega, chi):
        assert c == CASE1.susceptibility(float(w))


def test_relative_permittivity_profile():
    x = np.array([-0.05, -0.03125, 0.0, 0.03125, 0.05])
    eps = relative_permittivity(CASE1, x, 500.0)
    inside = 1.0 + 0.4j
    np.testing.assert_allclose(eps[[1, 2, 3]], inside, rtol=1e-14)
    np.testing.assert_allclose(eps[[0, 4]], 1.0, rtol=1e-14)


def test_vacuum_preset_is_empty():
    vac = CASE_PRESETS["vacuum"]
    assert vac.omega_p == 0.0
    assert vac.susceptibility(500.0) == 0.0
    assert np.all(relative_permittivity(vac, np.linspace(-1, 1, 7), 500.0)
                  == 1.0)


def test_slab_geometry():
    assert CASE1.slab_half_length == 0.03125
    assert CASE1.slab_length == 0.0625
    # both faces count as inside the slab, the next float outward does not
    a = CASE1.slab_half_length
    x = np.array([-a, a, np.nextafter(-a, -1.0), np.nextafter(a, 1.0)])
    eps = relative_permittivity(CASE1, x, 500.0)
    inside = 1.0 + CASE1.susceptibility(500.0)
    np.testing.assert_array_equal(eps, [inside, inside, 1.0, 1.0])


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(omega_p=-1.0, omega_0=500.0, gamma=50.0, slab_half_length=0.03125),
        dict(omega_p=100.0, omega_0=0.0, gamma=50.0, slab_half_length=0.03125),
        dict(omega_p=100.0, omega_0=500.0, gamma=-1.0, slab_half_length=0.03125),
        dict(omega_p=100.0, omega_0=500.0, gamma=50.0, slab_half_length=0.0),
        # non-finite parameters
        dict(omega_p=float("nan"), omega_0=500.0, gamma=50.0,
             slab_half_length=0.03125),
        dict(omega_p=100.0, omega_0=float("inf"), gamma=50.0,
             slab_half_length=0.03125),
        dict(omega_p=100.0, omega_0=500.0, gamma=float("nan"),
             slab_half_length=0.03125),
        dict(omega_p=100.0, omega_0=500.0, gamma=50.0,
             slab_half_length=float("inf")),
        # finite, but chi squares them past the largest double
        dict(omega_p=1e155, omega_0=500.0, gamma=50.0,
             slab_half_length=0.03125),
        dict(omega_p=100.0, omega_0=1e200, gamma=50.0,
             slab_half_length=0.03125),
        # chi multiplies gamma by omega: refused by the same square rule
        dict(omega_p=100.0, omega_0=500.0, gamma=1e155,
             slab_half_length=0.03125),
        dict(omega_p=100.0, omega_0=500.0, gamma=1e307,
             slab_half_length=0.03125),
    ],
)
def test_invalid_parameters_rejected(kwargs):
    with pytest.raises(ValueError):
        MediumSpec(**kwargs)


@given(omega_0=st.floats(1e-3, 1e6),
       gamma=st.sampled_from([0.0, 5e-324, 50.0]), step=st.integers(-2, 2))
# a C pow may round this omega_0**2 one ulp away from omega_0 * omega_0
@example(omega_0=184727.18235947503, gamma=0.0, step=0)
def test_pole_is_where_the_denominator_vanishes(omega_0, gamma, step):
    # exact for the frequencies next to omega_0 too, and for a gamma whose
    # product with omega underflows to zero
    medium = dataclasses.replace(CASE1, omega_0=omega_0, gamma=gamma)
    omega = omega_0
    for _ in range(abs(step)):
        omega = float(np.nextafter(omega, step * np.inf))
    w = np.asarray(omega)
    denominator = (medium.omega_0 * medium.omega_0 - w**2
                   - 1j * w * medium.gamma)
    assert medium.pole_at(omega) == (denominator == 0)
    if gamma == 0.0:
        assert medium.pole_at(omega_0)


def test_case_preset_resolution():
    medium, x_atom = case_preset("1A")
    assert medium.gamma == 50.0 and x_atom == ATOM_INSIDE
    medium, x_atom = case_preset("2b")
    assert medium.gamma == 5.0 and x_atom == ATOM_OUTSIDE
    medium, x_atom = case_preset("vacuum")
    assert medium.omega_p == 0.0 and x_atom == 0.0
    with pytest.raises(ValueError):
        case_preset("3A")
    with pytest.raises(ValueError):
        case_preset("1C")
