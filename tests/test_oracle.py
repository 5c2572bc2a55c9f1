"""Transfer-matrix reference: checked against closed forms it does not use.

The oracle is the trust anchor for the FEM cross-checks, so it gets its own
independent verification here: the textbook two-interface formula (re-derived
inline), Fresnel limits, flux conservation, and direct residual checks of the
differential equation and the Green-function jump condition.
"""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from _dense_reference import relative_permittivity

from slabqed.medium import CASE_PRESETS, MediumSpec
from slabqed.oracle import (
    slab_wavenumber,
    tmm_green,
    tmm_reflection_transmission,
    tmm_total_field,
)

CASE1 = CASE_PRESETS["1"]
CASE2 = CASE_PRESETS["2"]
VACUUM = CASE_PRESETS["vacuum"]
OMEGAS = [300.0, 420.0, 500.0, 640.0, 700.0]


def airy_r_t(medium, omega):
    """Independent closed form: single-pass Fabry-Perot summation result.

    r = rho (1 - P^2) / (1 - rho^2 P^2) at the illuminated face and
    t = (1 - rho^2) P / (1 - rho^2 P^2) * e^{-ik L} at the exit face, with
    rho the step Fresnel coefficient and P the one-way slab propagator; the
    e^{-ik L} factor removes the vacuum phase an unscattered wave would have
    accumulated, matching the de-embedded port convention.
    """
    k = omega
    ks = slab_wavenumber(medium, omega)
    rho = (k - ks) / (k + ks)
    prop = np.exp(1j * ks * medium.slab_length)
    denom = 1.0 - rho**2 * prop**2
    r_face = rho * (1.0 - prop**2) / denom
    t_face = (1.0 - rho**2) * prop / denom * np.exp(-1j * k * medium.slab_length)
    return r_face, t_face


def matching_system_coefficients(medium, omega):
    """(r, C, D, t) from the 4x4 value/derivative matching at both faces.

    Field e^{ikx} + r e^{-ikx} left of the slab, C e^{ik_s(x+a)} +
    D e^{-ik_s(x-a)} inside and t e^{ikx} right of it; solved densely.
    """
    k, a = omega, medium.slab_half_length
    ks = slab_wavenumber(medium, omega)
    phase = np.exp(1j * k * a)
    prop = np.exp(1j * ks * medium.slab_length)
    mat = np.array([[phase, -1.0, -prop, 0.0],
                    [-k * phase, -ks, ks * prop, 0.0],
                    [0.0, prop, 1.0, -phase],
                    [0.0, ks * prop, -ks, -k * phase]], dtype=complex)
    rhs = np.array([-1.0 / phase, -k / phase, 0.0, 0.0], dtype=complex)
    return np.linalg.solve(mat, rhs)


def matching_system_field(medium, omega, x):
    """Phi_+ at the points ``x`` from ``matching_system_coefficients``."""
    k, a = omega, medium.slab_half_length
    ks = slab_wavenumber(medium, omega)
    r, c, d, t = matching_system_coefficients(medium, omega)
    x = np.asarray(x, dtype=float)
    return np.where(
        x < -a, np.exp(1j * k * x) + r * np.exp(-1j * k * x),
        np.where(x > a, t * np.exp(1j * k * x),
                 c * np.exp(1j * ks * np.clip(x + a, 0.0, None))
                 + d * np.exp(-1j * ks * np.clip(x - a, None, 0.0))))


# an opaque lossy slab 32 times case 2's length (P = e^{i k_s L} underflows
# to 0 near resonance) and a lossless slab whose eps_r < 0 above omega_0
# (k_s imaginary, |rho| = 1, P = e^{-706} at 411)
OPAQUE = MediumSpec(omega_p=100.0, omega_0=500.0, gamma=5.0,
                    slab_half_length=1.0)
BELOW_CUTOFF = MediumSpec(omega_p=264.0, omega_0=410.0, gamma=0.0,
                          slab_half_length=0.09375)
# a lossless slab below its resonance (chi real > 0)
LOSSLESS = MediumSpec(omega_p=100.0, omega_0=500.0, gamma=0.0,
                      slab_half_length=0.03125)


@pytest.mark.parametrize("medium", [CASE1, CASE2, VACUUM, OPAQUE,
                                    BELOW_CUTOFF])
def test_closed_form_coefficients_solve_the_matching_system(medium):
    omegas = np.linspace(300.0, 700.0, 401)
    if medium is BELOW_CUTOFF:
        omegas = np.concatenate((omegas, [411.0]))
    # r and t, and Phi_+ at 9 points across the slab, which read the two
    # interior amplitudes
    a = medium.slab_half_length
    inside = np.linspace(-a, a, 9)
    worst = 0.0
    for omega in omegas[np.abs(omegas - medium.omega_0) > 1e-6]:
        r, t = tmm_reflection_transmission(medium, omega)
        got = np.array([r, t, *tmm_total_field(medium, omega, +1, inside)])
        r_abs, _, _, t_ref = matching_system_coefficients(medium, omega)
        reference = np.array([r_abs * np.exp(2j * omega * a), t_ref,
                              *matching_system_field(medium, omega, inside)])
        worst = max(worst, np.max(np.abs(got - reference)
                                  / np.maximum(1.0, np.abs(reference))))
    assert worst <= 1e-14
    if medium is OPAQUE:
        prop = np.exp(1j * slab_wavenumber(medium, 500.0) * medium.slab_length)
        assert prop == 0.0
    if medium is BELOW_CUTOFF:
        ks = slab_wavenumber(medium, 411.0)
        assert ks.real == 0.0 and ks.imag > 0.0


def test_vacuum_no_scattering():
    r, t = tmm_reflection_transmission(VACUUM, 500.0)
    assert abs(r) < 1e-14
    assert t == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("omega", OMEGAS)
@pytest.mark.parametrize("medium", [CASE1, CASE2])
def test_matches_fabry_perot_closed_form(medium, omega):
    r, t = tmm_reflection_transmission(medium, omega)
    r_ref, t_ref = airy_r_t(medium, omega)
    assert r == pytest.approx(r_ref, rel=1e-12, abs=1e-15)
    assert t == pytest.approx(t_ref, rel=1e-12, abs=1e-15)


def test_lossless_slab_conserves_flux():
    lossless = MediumSpec(omega_p=100.0, omega_0=500.0, gamma=0.0,
                          slab_half_length=0.03125)
    for omega in (200.0, 300.0, 450.0):  # below resonance, chi real > 0
        r, t = tmm_reflection_transmission(lossless, omega)
        assert abs(r) ** 2 + abs(t) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_opaque_slab_reaches_fresnel_limit():
    # case 2 on resonance: chi = 4i, Im(ks) L ~ 39, the back face is invisible
    omega = 500.0
    k = omega
    ks = slab_wavenumber(CASE2, omega)
    rho = (k - ks) / (k + ks)
    r, t = tmm_reflection_transmission(CASE2, omega)
    assert r == pytest.approx(rho, rel=1e-12)
    assert abs(t) < 1e-15


def test_absorption_is_positive_and_bounded():
    for medium in (CASE1, CASE2):
        for omega in OMEGAS:
            r, t = tmm_reflection_transmission(medium, omega)
            absorbed = 1.0 - abs(r) ** 2 - abs(t) ** 2
            assert 0.0 < absorbed < 1.0


@pytest.mark.parametrize("medium", [CASE1, CASE2])
def test_energy_balance_against_interior_quadrature(medium):
    # flux deficit must equal k * Im(chi) * int |Phi_tot|^2 over the slab
    omega = 500.0
    chi = medium.susceptibility(omega)
    nodes, weights = np.polynomial.legendre.leggauss(200)
    a = medium.slab_half_length
    x = a * nodes
    w = a * weights
    phi = tmm_total_field(medium, omega, +1, x)
    absorbed_quad = omega * chi.imag * np.sum(w * np.abs(phi) ** 2)
    r, t = tmm_reflection_transmission(medium, omega)
    deficit = 1.0 - abs(r) ** 2 - abs(t) ** 2
    assert absorbed_quad == pytest.approx(deficit, rel=1e-10)


def test_total_field_continuity_at_faces():
    omega = 500.0
    a = CASE1.slab_half_length
    eps = 1e-9
    for face in (-a, a):
        lo = tmm_total_field(CASE1, omega, +1, face - eps)
        hi = tmm_total_field(CASE1, omega, +1, face + eps)
        assert lo == pytest.approx(hi, rel=1e-5)


def test_total_field_solves_helmholtz():
    # second-order finite-difference residual of Phi'' + k^2 eps Phi = 0,
    # checked inside the slab and in the vacuum wings
    omega = 500.0
    h = 1e-5
    for x0 in (-0.05, -0.01, 0.0, 0.02, 0.05):
        x = np.array([x0 - h, x0, x0 + h])
        phi = tmm_total_field(CASE1, omega, +1, x)
        second = (phi[0] - 2 * phi[1] + phi[2]) / h**2
        eps_r = relative_permittivity(CASE1, x0, omega)
        residual = second + omega**2 * eps_r * phi[1]
        assert abs(residual) / (omega**2 * abs(phi[1])) < 1e-4


def test_reverse_incidence_convention():
    # direction -1: total field is e^{-ikx} + r e^{+ikx} on the right wing,
    # using the absolute-phase amplitudes a symmetric slab shares between
    # the two incidence directions
    omega = 420.0
    r, t = tmm_reflection_transmission(CASE1, omega)
    r_abs = r * np.exp(-2j * omega * CASE1.slab_half_length)
    x = 0.21
    phi = tmm_total_field(CASE1, omega, -1, x)
    expected = np.exp(-1j * omega * x) + r_abs * np.exp(1j * omega * x)
    assert phi == pytest.approx(expected, rel=1e-12)
    x = -0.17
    phi = tmm_total_field(CASE1, omega, -1, x)
    assert phi == pytest.approx(t * np.exp(-1j * omega * x), rel=1e-12)


def test_green_vacuum_closed_form():
    # G(x, x') = (i/2k) e^{ik|x-x'|}; at k = 500 the self value is i/1000
    k = 500.0
    g_self = tmm_green(VACUUM, k, 0.01, 0.01)
    assert g_self == pytest.approx(1j / (2 * k), rel=1e-13)
    assert g_self == pytest.approx(0.001j, rel=1e-13)
    # quarter-wavelength separation picks up a factor e^{i pi/2} = i
    quarter = np.pi / (2 * k)
    g = tmm_green(VACUUM, k, 0.0, quarter)
    assert g == pytest.approx(-1.0 / (2 * k), rel=1e-12)
    x = np.linspace(-0.2, 0.2, 41)
    np.testing.assert_allclose(
        tmm_green(VACUUM, k, x, 0.03),
        (1j / (2 * k)) * np.exp(1j * k * np.abs(x - 0.03)),
        rtol=1e-12,
    )


@pytest.mark.parametrize("medium", [CASE1, CASE2])
def test_green_symmetry(medium):
    omega = 500.0
    pairs = [(-0.05, 0.01), (0.0, 0.02), (-0.02, 0.09)]
    for xa, xb in pairs:
        assert tmm_green(medium, omega, xa, xb) == pytest.approx(
            tmm_green(medium, omega, xb, xa), rel=1e-13
        )


def test_green_jump_condition():
    # the derivative of G must drop by exactly 1 across the source point
    omega = 500.0
    x_src = 0.012  # inside the slab
    d = 1e-7
    for medium in (VACUUM, CASE1):
        right = (tmm_green(medium, omega, x_src + 2 * d, x_src)
                 - tmm_green(medium, omega, x_src + d, x_src)) / d
        left = (tmm_green(medium, omega, x_src - d, x_src)
                - tmm_green(medium, omega, x_src - 2 * d, x_src)) / d
        assert (right - left) == pytest.approx(-1.0, rel=1e-3)


def test_green_solves_helmholtz_away_from_source():
    omega = 500.0
    x_src = -0.01
    h = 1e-5
    for x0 in (-0.025, 0.005, 0.05):
        x = np.array([x0 - h, x0, x0 + h])
        g = tmm_green(CASE1, omega, x, x_src)
        second = (g[0] - 2 * g[1] + g[2]) / h**2
        eps_r = relative_permittivity(CASE1, x0, omega)
        residual = second + omega**2 * eps_r * g[1]
        assert abs(residual) / (omega**2 * abs(g[1])) < 1e-4


def test_green_is_the_product_of_mirrored_scattering_states():
    # G(x, x') = (i / 2kt) Phi_+(-x_<) Phi_+(x_>): the left-going outgoing
    # solution is the mirror of the right-going one, Phi_+ t, and their
    # Wronskian 2ik / t; Phi_+ and t from the dense matching system
    x = np.linspace(-0.1, 0.1, 17)  # left of, inside and right of the slab
    for medium, omega in itertools.product(
            (CASE1, CASE2, VACUUM, LOSSLESS), (300.0, 420.0, 499.0, 640.0,
                                               700.0)):
        t = matching_system_coefficients(medium, omega)[3]
        for x_src in (-0.05, -0.01, 0.0, 0.02, 0.07):
            lo, hi = np.minimum(x, x_src), np.maximum(x, x_src)
            reference = (1j / (2.0 * omega * t)
                         * matching_system_field(medium, omega, -lo)
                         * matching_system_field(medium, omega, hi))
            got = tmm_green(medium, omega, x, x_src)
            assert np.abs(got - reference).max() <= (
                1e-13 * np.abs(reference).max())


def test_green_decays_through_opaque_slab():
    omega = 500.0  # case 2: |G| across the slab should drop by ~e^{-39}
    a = CASE2.slab_half_length
    g_across = tmm_green(CASE2, omega, -a, a)
    g_self = tmm_green(CASE2, omega, -a, -a)
    assert abs(g_across) / abs(g_self) < 1e-15


def test_green_stays_finite_through_an_opaque_lossless_slab():
    # eps_r = -83.9 at omega 411: e^{i k_s L} = e^{-706} sits at the edge of
    # underflow, and unscaled amplitudes overflowed to a NaN G
    medium = MediumSpec(264.0, 410.0, 0.0, 0.09375)
    omega = 411.0
    ks = slab_wavenumber(medium, omega)
    assert abs(np.exp(1j * ks * medium.slab_length)) < 1e-300
    g = tmm_green(medium, omega, [0.0], 0.0)
    assert np.all(np.isfinite(g))
    # deep inside a thick slab G(x, x) is the bulk value i / (2 k_s)
    np.testing.assert_allclose(g, 1j / (2.0 * ks), rtol=1e-12)
    x = np.linspace(-0.3, 0.3, 61)
    for x_src in (-0.2, 0.0, 0.05, 0.2):
        assert np.all(np.isfinite(tmm_green(medium, omega, x, x_src)))


def test_rejects_nonpositive_frequency():
    # refused before anything is computed, naming the first bad frequency;
    # NaN and inf, which pass a test of k <= 0, too
    calls = [lambda omega: tmm_reflection_transmission(CASE1, omega),
             lambda omega: tmm_total_field(CASE1, omega, +1, 0.0),
             lambda omega: tmm_green(CASE1, omega, 0.0, 0.0),
             lambda omega: tmm_green(CASE1, omega, [-0.1, 0.0, 0.1], 0.0)]
    cases = [(0.0, "0.0"), (-5.0, "-5.0"), ([300.0, 0.0, -5.0], "0.0"),
             (np.array([[500.0], [-5.0]]), "-5.0"), (np.nan, "nan"),
             (np.inf, "inf"), ([300.0, np.inf, np.nan], "inf")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, (omega, named) in itertools.product(calls, cases):
            with pytest.raises(ValueError, match=f"got {named}$"):
                call(omega)
    with pytest.raises(ValueError):
        tmm_total_field(CASE1, 500.0, 0, 0.0)


# passive Lorentz slabs probed over the sweep band; gamma = 0 is drawn often
# because it is the case with an exact flux balance
PASSIVE_SLABS = st.builds(
    MediumSpec,
    omega_p=st.floats(0.0, 300.0),
    omega_0=st.floats(100.0, 1000.0),
    gamma=st.one_of(st.just(0.0), st.floats(0.0, 200.0)),
    slab_half_length=st.floats(0.005, 0.1),
)
BAND = st.floats(300.0, 700.0)


@settings(deadline=None, max_examples=200)
@given(medium=PASSIVE_SLABS, omega=BAND)
def test_passive_slab_never_creates_flux(medium, omega):
    # a lossless resonance at omega itself has no finite response
    assume(abs(omega - medium.omega_0) > 1e-6 * medium.omega_0)
    r, t = tmm_reflection_transmission(medium, omega)
    flux = abs(r) ** 2 + abs(t) ** 2
    if medium.gamma == 0.0:
        assert flux == pytest.approx(1.0, abs=1e-12)
    else:
        assert flux <= 1.0 + 1e-12


@settings(deadline=None, max_examples=200)
@given(medium=PASSIVE_SLABS, omega=BAND,
       x=st.floats(-0.2, 0.2), x_src=st.floats(-0.2, 0.2))
def test_green_function_is_reciprocal(medium, omega, x, x_src):
    assume(abs(omega - medium.omega_0) > 1e-6 * medium.omega_0)
    assert tmm_green(medium, omega, x, x_src) == tmm_green(
        medium, omega, x_src, x)


@settings(deadline=None, max_examples=200)
@given(medium=PASSIVE_SLABS, omega=BAND)
def test_incidence_from_either_side_scatters_alike(medium, omega):
    """r and t read off the total fields of both incidence directions."""
    assume(abs(omega - medium.omega_0) > 1e-6 * medium.omega_0)
    k, a = omega, medium.slab_half_length
    x_out = 2.0 * a  # a point past each face, in vacuum
    r, t = tmm_reflection_transmission(medium, omega)
    for direction in (+1, -1):
        # the wave comes in from -direction * infinity
        near, far = -direction * x_out, direction * x_out
        incident = np.exp(1j * direction * k * near)
        reflected = (tmm_total_field(medium, omega, direction, near)
                     - incident) / np.exp(-1j * direction * k * near)
        transmitted = (tmm_total_field(medium, omega, direction, far)
                       / np.exp(1j * direction * k * far))
        # face convention: reflection referenced at the illuminated face
        r_face = reflected * np.exp(2j * k * a)
        assert r_face == pytest.approx(r, abs=1e-12)
        assert transmitted == pytest.approx(t, abs=1e-12)
