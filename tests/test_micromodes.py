import numpy as np
import pytest
import scipy.linalg

from slabqed.medium import CASE_PRESETS, MediumSpec, case_preset
from slabqed.mesh import PmlSpec, build_mesh
from slabqed.micromodes import (
    BathConfig,
    build_gevp,
    diagonalize,
    effective_susceptibility,
    frequency_bins,
    gevp_mesh,
    oscillator_strength,
    purcell_from_modes,
    ser_modes,
)
from slabqed.purcell import compute_record, purcell_mesh

CALIBRATION_BINS = 400


def calibration_system(label):
    medium = CASE_PRESETS[label]
    bath = BathConfig(n_bins=CALIBRATION_BINS)
    return build_gevp(gevp_mesh(medium, bath), medium, bath), medium


@pytest.fixture(scope="module")
def case1_modes():
    medium, x_a = case_preset("1A")
    bath = BathConfig()
    system = build_gevp(gevp_mesh(medium, bath), medium, bath)
    return diagonalize(system, band=(1.0, 1000.0)), medium, x_a


@pytest.fixture(scope="module")
def vacuum_modes():
    medium = CASE_PRESETS["vacuum"]
    bath = BathConfig()
    system = build_gevp(gevp_mesh(medium, bath), medium, bath)
    return diagonalize(system, band=(1.0, 1000.0)), bath


def test_bath_config_rejects_bad_values():
    with pytest.raises(ValueError):
        BathConfig(n_bins=7)
    with pytest.raises(ValueError):
        BathConfig(nu_max=0.0)
    with pytest.raises(ValueError):
        BathConfig(box_length=-1.0)


def test_oscillator_strength_formula():
    medium = CASE_PRESETS["1"]
    nu = np.array([100.0, 500.0, 900.0])
    expected = (2.0 / np.pi) * nu * medium.susceptibility(nu).imag
    np.testing.assert_allclose(oscillator_strength(medium, nu), expected)
    assert np.all(oscillator_strength(medium, nu) > 0)
    vac = CASE_PRESETS["vacuum"]
    np.testing.assert_array_equal(oscillator_strength(vac, nu), np.zeros(3))


def test_frequency_bins_conserve_mass():
    medium = CASE_PRESETS["2"]
    bath = BathConfig(n_bins=64)
    centers, weights = frequency_bins(medium, bath)
    assert centers.size == 64 and weights.size == 64
    assert np.all(np.diff(centers) > 0)
    assert centers[0] > 0 and centers[-1] < bath.nu_max
    # total weight = integral of sigma up to nu_max, by construction
    nu = np.linspace(1e-2, bath.nu_max, 400001)
    mass = np.trapezoid(oscillator_strength(medium, nu), nu)
    np.testing.assert_allclose(weights.sum(), mass, rtol=1e-5)


def test_frequency_bins_degenerate_media():
    centers, weights = frequency_bins(CASE_PRESETS["vacuum"], BathConfig())
    assert centers.size == 0 and weights.size == 0

    medium = CASE_PRESETS["1"]
    lossless = MediumSpec(medium.omega_p, medium.omega_0, 0.0,
                          medium.slab_half_length)
    centers, weights = frequency_bins(lossless, BathConfig())
    np.testing.assert_allclose(centers, [medium.omega_0])
    np.testing.assert_allclose(weights, [medium.omega_p**2])


def test_frequency_bins_reject_low_nu_max():
    with pytest.raises(ValueError, match="resonance"):
        frequency_bins(CASE_PRESETS["1"], BathConfig(nu_max=400.0))


@pytest.mark.parametrize("label", ["1", "2"])
def test_effective_susceptibility_calibration(label):
    system, medium = calibration_system(label)
    band = np.linspace(300.0, 700.0, 101)
    worst = 0.0
    for omega in band:
        target = medium.susceptibility(omega)
        got = effective_susceptibility(system, omega)
        worst = max(worst, abs(got - target) / abs(target))
    assert worst < 0.02


def test_effective_susceptibility_static_limit():
    system, medium = calibration_system("2")
    got = effective_susceptibility(system, 50.0)
    # far below resonance chi approaches omega_p^2 / omega_0^2 = 0.04
    np.testing.assert_allclose(got, medium.susceptibility(50.0), rtol=0.02)
    assert abs(got - 0.04) < 0.002


def test_effective_susceptibility_resonance_value():
    system, medium = calibration_system("1")
    got = effective_susceptibility(system, 500.0)
    np.testing.assert_allclose(got, 0.4j, rtol=0.02)


def test_effective_susceptibility_is_passive():
    system, _ = calibration_system("1")
    for omega in (320.0, 480.0, 530.0, 680.0):
        assert effective_susceptibility(system, omega).imag > 0


def test_effective_susceptibility_vacuum_is_zero():
    medium = CASE_PRESETS["vacuum"]
    bath = BathConfig()
    system = build_gevp(gevp_mesh(medium, bath), medium, bath)
    assert effective_susceptibility(system, 500.0) == 0.0


def test_effective_susceptibility_bin_collision():
    system, _ = calibration_system("1")
    hit = float(system.bin_frequencies[200])
    with pytest.raises(ValueError, match="collides"):
        effective_susceptibility(system, hit)


def test_build_gevp_rejects_absorbing_mesh():
    medium = CASE_PRESETS["1"]
    mesh = build_mesh(medium, k_max=300.0, points_per_wavelength=10.0,
                      padding=0.05, pml=PmlSpec(thickness=0.05))
    with pytest.raises(ValueError, match="closed box"):
        build_gevp(mesh, medium, BathConfig())


def test_vacuum_spectrum_matches_box_modes(vacuum_modes):
    modes, bath = vacuum_modes
    exact = np.arange(1, 11) * np.pi / bath.box_length
    np.testing.assert_allclose(modes.frequencies[:10], exact, rtol=1e-3)
    # metric normalization reproduces the sqrt(2/L) standing-wave amplitude
    amp = np.max(np.abs(modes.e_fields[0]))
    np.testing.assert_allclose(amp, np.sqrt(2.0 / bath.box_length), rtol=1e-3)


def test_modes_are_real_positive_and_orthonormal(case1_modes):
    modes, _, _ = case1_modes
    assert modes.frequencies.dtype == np.float64
    assert np.all(modes.frequencies > 0)
    assert np.all(np.diff(modes.frequencies) >= 0)
    assert modes.normalization_residual < 1e-10


def test_metric_floor_is_positive():
    # small closed box so the dense metric is cheap to inspect whole
    medium = CASE_PRESETS["1"]
    bath = BathConfig(n_bins=8, box_length=0.25)
    system = build_gevp(gevp_mesh(medium, bath, k_max=300.0), medium, bath)
    _, B = system.dense_operators()
    assert system.n_matter > 0
    assert scipy.linalg.eigh(B, eigvals_only=True).min() > 0


def test_vacuum_purcell_near_unity(vacuum_modes):
    modes, bath = vacuum_modes
    eta = 4.0 * np.pi / bath.box_length
    pf = purcell_from_modes(modes, 0.0123, 500.0, eta)
    assert abs(pf - 1.0) < 0.05


def test_wall_point_emits_nothing(vacuum_modes):
    modes, bath = vacuum_modes
    eta = 4.0 * np.pi / bath.box_length
    wall = modes.nodes[0]
    assert ser_modes(modes, wall, 500.0, eta) == 0.0


def test_amplitude_outside_box_rejected(vacuum_modes):
    modes, _ = vacuum_modes
    with pytest.raises(ValueError, match="outside"):
        modes.amplitude_at(modes.nodes[-1] + 1.0)


def test_eta_below_spacing_rejected(vacuum_modes):
    modes, bath = vacuum_modes
    spacing = np.pi / bath.box_length
    with pytest.raises(ValueError, match="spacing"):
        ser_modes(modes, 0.0123, 500.0, 0.5 * spacing)


def test_case1a_rate_tracks_direct_green_function(case1_modes):
    modes, medium, x_a = case1_modes
    pf_modes = purcell_from_modes(modes, x_a, 500.0, eta=20.0)
    mesh = purcell_mesh(medium, x_a, k_max=500.0, ppw=40.0)
    record = compute_record(mesh, medium, 500.0, x_a)
    assert abs(pf_modes - record.pf_sfa) / record.pf_sfa < 0.10


def test_rate_is_stable_under_eta_halving(case1_modes):
    modes, _, x_a = case1_modes
    wide = purcell_from_modes(modes, x_a, 500.0, eta=20.0)
    narrow = purcell_from_modes(modes, x_a, 500.0, eta=10.0)
    assert abs(narrow - wide) / wide < 0.05


def test_band_integral_matches_vacuum(vacuum_modes):
    modes, bath = vacuum_modes
    eta = 4.0 * np.pi / bath.box_length
    grid = np.linspace(300.0, 700.0, 41)
    pf = [purcell_from_modes(modes, 0.0123, w, eta) for w in grid]
    integral = np.trapezoid(pf, grid)
    np.testing.assert_allclose(integral, 400.0, rtol=0.15)


def test_slab_packs_extra_modes_near_resonance(case1_modes):
    modes, medium, _ = case1_modes
    vac = CASE_PRESETS["vacuum"]
    bath = BathConfig()
    vac_modes = diagonalize(build_gevp(gevp_mesh(vac, bath), vac, bath),
                            band=(1.0, 1000.0))

    def count_near(mode_set, lo=450.0, hi=550.0):
        f = mode_set.frequencies
        return int(np.sum((f >= lo) & (f <= hi)))

    assert count_near(modes) > count_near(vac_modes)


def test_dense_cap_refuses_runaway_systems():
    system, _ = calibration_system("1")
    assert system.size > 4000
    with pytest.raises(ValueError, match="cap"):
        system.dense_operators()
    with pytest.raises(ValueError, match="cap"):
        diagonalize(system)


def test_pencil_is_positive_semidefinite():
    # small closed box so the dense spectrum is cheap to inspect whole
    medium = CASE_PRESETS["1"]
    bath = BathConfig(n_bins=8, box_length=0.25)
    mesh = gevp_mesh(medium, bath, k_max=300.0)
    system = build_gevp(mesh, medium, bath)
    K, B = system.dense_operators()
    values = scipy.linalg.eigh(K, B, eigvals_only=True)
    assert values.min() > -1e-8 * values.max()


def test_gevp_mesh_puts_atom_sites_on_nodes():
    medium = CASE_PRESETS["1"]
    mesh = gevp_mesh(medium, BathConfig())
    assert mesh.pml is None
    mesh.find_node(0.0)
    mesh.find_node(0.0625)
