import contextlib
import dataclasses
import math
import signal

import numpy as np
import pytest
import scipy.linalg
from _dense_reference import dense_operators, per_mode_bisect
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slabqed import micromodes
from slabqed.fem import assemble
from slabqed.medium import (
    ATOM_INSIDE,
    ATOM_OUTSIDE,
    CASE_PRESETS,
    MediumSpec,
    case_preset,
)
from slabqed.mesh import InputError, Mesh1D, build_mesh, unique_columns
from slabqed.micromodes import (
    BathConfig,
    ModeSet,
    build_gevp,
    diagonalize,
    effective_susceptibility,
    eigenvalue_count,
    frequency_bins,
    gevp_mesh,
    nu_max_range,
    oscillator_strength,
    purcell_from_modes,
    ser_modes,
)
from slabqed.purcell import compute_record, purcell_mesh

CALIBRATION_BINS = 400

# every test here finishes in a few seconds; a search that stops closing in
# (say, a bracket that no longer halves) fails at this limit, not hangs
TEST_TIMEOUT_S = 60


@contextlib.contextmanager
def deadline(seconds=TEST_TIMEOUT_S):
    """Raise TimeoutError in the block once it has run ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def timeout():
    # the module fixtures below are set up before this one, so they run
    # under a deadline of their own
    with deadline():
        yield


def calibration_system(label):
    medium = CASE_PRESETS[label]
    bath = BathConfig(n_bins=CALIBRATION_BINS)
    return build_gevp(gevp_mesh(medium, bath), medium, bath), medium


def stock_modes(medium):
    bath = BathConfig()
    system = build_gevp(gevp_mesh(medium, bath), medium, bath)
    with deadline():
        return diagonalize(system, band=(1.0, 1000.0))


@pytest.fixture(scope="module")
def case1_modes():
    medium, x_a = case_preset("1A")
    return stock_modes(medium), medium, x_a


@pytest.fixture(scope="module")
def case2_modes():
    return stock_modes(CASE_PRESETS["2"])


@pytest.fixture(scope="module")
def vacuum_modes():
    return stock_modes(CASE_PRESETS["vacuum"]), BathConfig()


def test_bath_config_rejects_bad_values():
    with pytest.raises(ValueError):
        BathConfig(n_bins=7)
    with pytest.raises(ValueError):
        BathConfig(nu_max=0.0)
    with pytest.raises(ValueError):
        BathConfig(box_length=-1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_bath_config_rejects_non_finite_values(value):
    # every comparison with NaN is False, so "<= 0" alone let it through
    with pytest.raises(ValueError, match="nu_max must be > 0"):
        BathConfig(nu_max=value)
    with pytest.raises(ValueError, match="box_length must be > 0"):
        BathConfig(box_length=value)


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
def test_frequency_bins_resolve_gamma_up_to_the_grid_bound(label):
    # at the largest nu_max allowed the grid steps by 0.3 gamma and the
    # bins keep the f-sum omega_p^2 (1 - (2/pi) gamma / nu_max), measured
    # to 3e-5; one ulp above it the bins are refused
    medium = CASE_PRESETS[label]
    low, high = nu_max_range(medium)
    assert low == medium.omega_0
    assert high == 0.3 * medium.gamma * 200001
    _, weights = frequency_bins(medium, BathConfig(nu_max=high))
    f_sum = medium.omega_p**2 * (1.0 - 2.0 / np.pi * medium.gamma / high)
    np.testing.assert_allclose(weights.sum(), f_sum, rtol=1e-4)
    with pytest.raises(ValueError, match=f"resolve gamma = {medium.gamma}"):
        frequency_bins(medium, BathConfig(nu_max=np.nextafter(high, np.inf)))


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
    # every open mesh carries the complex outgoing condition, so the
    # Hermitian pencil refuses it, also one with a closed box's nodes
    medium = CASE_PRESETS["1"]
    mesh = build_mesh(medium, k_max=300.0, points_per_wavelength=10.0,
                      padding=0.05)
    box = gevp_mesh(medium, BathConfig(), k_max=300.0)
    for open_mesh in (mesh, Mesh1D(box.nodes, box.slab_half_length,
                                   is_open=True)):
        assert open_mesh.is_open
        with pytest.raises(ValueError, match="closed box"):
            build_gevp(open_mesh, medium, BathConfig())


@pytest.mark.parametrize("label", ["1", "2"])
def test_pencil_bands_are_the_vacuum_assembly(label):
    # the field block reads the static vacuum bands; bitwise the real
    # interior bands of a vacuum assembly at k = 1, whose empty slab adds
    # exact zeros to the mass and whose closed box has no port term
    medium, bath = CASE_PRESETS[label], BathConfig()
    mesh = gevp_mesh(medium, bath)
    system = build_gevp(mesh, medium, bath)
    vacuum = assemble(mesh, CASE_PRESETS["vacuum"], 1.0)
    for name in ("s_diag", "s_off", "m_diag", "m_off"):
        np.testing.assert_array_equal(getattr(system, f"em_{name}"),
                                      getattr(vacuum, name)[1:-1].real)


def test_vacuum_spectrum_matches_box_modes(vacuum_modes):
    modes, bath = vacuum_modes
    exact = np.arange(1, 11) * np.pi / bath.box_length
    np.testing.assert_allclose(modes.frequencies[:10], exact, rtol=1e-3)
    # metric normalization reproduces the sqrt(2/L) standing-wave amplitude;
    # the lowest mode is the first of the certificate sample
    assert modes.vector_modes[0] == 0
    amp = np.max(np.abs(modes.vectors[0]))
    np.testing.assert_allclose(amp, np.sqrt(2.0 / bath.box_length), rtol=1e-3)


def test_modes_are_real_positive_and_orthonormal(case1_modes):
    modes, _, _ = case1_modes
    assert modes.frequencies.dtype == np.float64
    assert np.all(modes.frequencies > 0)
    assert np.all(np.diff(modes.frequencies) >= 0)
    assert modes.normalization_residual < 1e-10


def vector_intensities(modes, x):
    """|E_m(x)|^2 of the modes that have vectors, read off the vectors."""
    return np.array([np.interp(x, modes.nodes, row)
                     for row in modes.vectors]) ** 2


# 0.0123 lies between nodes on every stock box mesh
@pytest.mark.parametrize("x", [ATOM_INSIDE, ATOM_OUTSIDE, 0.0123])
@pytest.mark.parametrize("label", ["1", "2", "vacuum"])
def test_residue_intensities_match_the_sample_vectors(label, x, request):
    fixture = {"1": "case1_modes", "2": "case2_modes",
               "vacuum": "vacuum_modes"}[label]
    modes = request.getfixturevalue(fixture)
    modes = modes[0] if isinstance(modes, tuple) else modes
    assert (x in modes.nodes) == (x != 0.0123)
    assert modes.vector_modes.size < modes.n_modes or label == "vacuum"
    exact = vector_intensities(modes, x)
    got = modes.intensity_at(x)
    assert got.shape == modes.frequencies.shape
    assert np.max(np.abs(got[modes.vector_modes] - exact)) <= (
        1e-10 * np.max(exact))
    assert modes.residue_residual(x) < 1e-10


def test_clustered_modes_take_their_intensities_from_vectors():
    # the small medium-1 box holds near-degenerate pairs split far below
    # their offset from the nearest bin; their residues miss
    system = small_box_system(REFERENCE_MEDIA["1"])
    modes = diagonalize(system, band=(1.0, 1000.0))
    clustered = modes.residues.clustered
    assert np.count_nonzero(clustered) >= 2
    rows = modes.vector_modes[clustered]
    exact = vector_intensities(modes, ATOM_OUTSIDE)
    np.testing.assert_array_equal(modes.intensity_at(ATOM_OUTSIDE)[rows],
                                  exact[clustered])
    residues_only = dataclasses.replace(modes, residues=dataclasses.replace(
        modes.residues, clustered=np.zeros_like(clustered)))
    miss = residues_only.intensity_at(ATOM_OUTSIDE)[rows] - exact[clustered]
    assert np.max(np.abs(miss)) > 1e-7 * np.max(exact)


def test_intensities_are_kept_for_the_last_point(case1_modes):
    modes, _, x_a = case1_modes
    first = modes.intensity_at(x_a)
    assert modes.intensity_at(x_a) is first
    assert not first.flags.writeable
    modes.intensity_at(ATOM_OUTSIDE)
    np.testing.assert_array_equal(modes.intensity_at(x_a), first)


def test_metric_floor_is_positive():
    # small closed box so the dense metric is cheap to inspect whole
    medium = CASE_PRESETS["1"]
    bath = BathConfig(n_bins=8, box_length=0.25)
    system = build_gevp(gevp_mesh(medium, bath, k_max=300.0), medium, bath)
    _, B = dense_operators(system)
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
        modes.intensity_at(modes.nodes[-1] + 1.0)
    with pytest.raises(ValueError, match="outside"):
        modes.intensity_at(float("nan"))


def test_eta_below_spacing_rejected(vacuum_modes):
    modes, bath = vacuum_modes
    spacing = np.pi / bath.box_length
    with pytest.raises(ValueError, match="spacing"):
        ser_modes(modes, 0.0123, 500.0, 0.5 * spacing)


@pytest.mark.parametrize("eta", [1e160, 1e300, math.inf, math.nan])
def test_eta_without_a_finite_square_is_refused(vacuum_modes, eta):
    # the Lorentzian squares eta: an overflowing square raised
    # OverflowError from eta**2, and NaN slipped past eta <= 0
    modes, _ = vacuum_modes
    for rate in (ser_modes, purcell_from_modes):
        with pytest.raises(ValueError, match="eta must be > 0"):
            rate(modes, 0.0, 500.0, eta)
        with pytest.raises(ValueError, match="eta must be > 0"):
            rate(modes, 0.0, 500.0, np.float64(eta))


def test_a_lorentzian_past_the_largest_double_is_refused(vacuum_modes):
    # eta and omega_a each have a finite square, their sum does not
    modes, _ = vacuum_modes
    with pytest.raises(ValueError, match="overflow the Lorentzian"):
        ser_modes(modes, 0.0, 1.3e154, 1.3e154)


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
        dense_operators(system)
    with pytest.raises(ValueError, match="cap"):
        diagonalize(system)


def test_a_band_top_past_every_mode_reads_the_whole_spectrum():
    # the count's pivots overflowed for a band top of 1e100 (lam = 1e200):
    # a top past every mode is cut to the bound that the whole spectrum's
    # count finds, so the modes are bitwise those of band=None; a top
    # without a finite square is refused
    medium = CASE_PRESETS["1"]
    bath = BathConfig(n_bins=8, box_length=0.25)
    system = build_gevp(gevp_mesh(medium, bath, k_max=300.0), medium, bath)
    whole = diagonalize(system).frequencies
    for top in (1e100, 1.3e154):
        np.testing.assert_array_equal(
            diagonalize(system, band=(0.0, top)).frequencies, whole)
    with pytest.raises(InputError, match="band top = 1e\\+200"):
        diagonalize(system, band=(1.0, 1e200))


def test_pencil_is_positive_semidefinite():
    # small closed box so the dense spectrum is cheap to inspect whole
    medium = CASE_PRESETS["1"]
    bath = BathConfig(n_bins=8, box_length=0.25)
    mesh = gevp_mesh(medium, bath, k_max=300.0)
    system = build_gevp(mesh, medium, bath)
    K, B = dense_operators(system)
    values = scipy.linalg.eigh(K, B, eigvals_only=True)
    assert values.min() > -1e-8 * values.max()


def test_gevp_mesh_puts_atom_sites_on_nodes():
    medium = CASE_PRESETS["1"]
    mesh = gevp_mesh(medium, BathConfig())
    assert not mesh.is_open
    mesh.find_node(0.0)
    mesh.find_node(0.0625)


# ------------------------------------------- reference: dense eigh on small boxes

_M1 = CASE_PRESETS["1"]
REFERENCE_MEDIA = {
    "1": _M1,
    "2": CASE_PRESETS["2"],
    "vacuum": CASE_PRESETS["vacuum"],  # no bins: a pure field count
    # gamma = 0: one undamped bin at omega_0 = 500, inside the band
    "lossless 1": MediumSpec(_M1.omega_p, _M1.omega_0, 0.0,
                             _M1.slab_half_length),
}
SMALL_BOX = 0.25


def small_box_system(medium, n_bins=8, box_length=SMALL_BOX):
    bath = BathConfig(n_bins=n_bins, box_length=box_length)
    return build_gevp(gevp_mesh(medium, bath, k_max=300.0), medium, bath)


def dense_modes(system, band):
    """The ModeSet of a dense generalized eigh of the reference operators."""
    values, vectors = scipy.linalg.eigh(*dense_operators(system))
    keep = (values >= band[0] ** 2) & (values <= band[1] ** 2)
    fields = np.zeros((int(keep.sum()), system.mesh.n_nodes))
    fields[:, 1:-1] = vectors[: system.n_em, keep].T
    return ModeSet(np.sqrt(values[keep]), fields, system.mesh.nodes.copy(), 0.0)


@pytest.mark.parametrize("label", sorted(REFERENCE_MEDIA))
def test_diagonalize_matches_dense_reference(label):
    system = small_box_system(REFERENCE_MEDIA[label])
    band = (1.0, 1000.0)
    modes = diagonalize(system, band=band)
    reference = dense_modes(system, band)
    assert modes.n_modes == reference.n_modes
    np.testing.assert_allclose(modes.frequencies, reference.frequencies,
                               rtol=1e-10)
    assert modes.normalization_residual < 1e-10
    eta = 4.0 * np.pi / SMALL_BOX
    for x_a in (ATOM_INSIDE, ATOM_OUTSIDE):
        for omega in (300.0, 450.0, 500.0, 550.0, 700.0):
            np.testing.assert_allclose(
                purcell_from_modes(modes, x_a, omega, eta),
                purcell_from_modes(reference, x_a, omega, eta),
                rtol=1e-10,
            )


def test_whole_spectrum_when_no_band():
    system = small_box_system(REFERENCE_MEDIA["1"])
    values = scipy.linalg.eigh(*dense_operators(system), eigvals_only=True)
    modes = diagonalize(system)
    assert modes.n_modes == system.size
    np.testing.assert_allclose(modes.frequencies**2, values, rtol=1e-10)
    assert modes.normalization_residual < 1e-10


# [S(sigma)^-1]_aa against its partial fractions, relative to the largest
# term, at every shift midway between consecutive modes of the small case-2
# box: the worst reads 2.5e-9 at the slab centre and 8.6e-10 at the
# outside site, midway in a pair 3.7e-6 of its offset apart, where the
# few-ulp brackets of the two lam set it; most shifts read ~1e-14
PARTIAL_FRACTION_FLOOR = 1e-8


def partial_fraction_residuals(modes, x_a, weights):
    """|[S(sigma)^-1]_aa - sum_m weights_m / (lam_m - sigma)| per shift.

    sigma runs midway between consecutive modes of a whole-spectrum set;
    the left side is a banded solve of the bands ``_Schur.matrices`` gives,
    and each lam_m - sigma is formed in the offset form about the bins.
    """
    r = modes.residues
    schur = r.schur
    lam = schur.anchors[r.anchor] + r.delta
    sigma = 0.5 * (lam[1:] + lam[:-1])
    anchor = schur.nearest(sigma)
    delta = sigma - schur.anchors[anchor]
    diag, off = schur.matrices(anchor, delta)
    dof = int(np.flatnonzero(modes.nodes == x_a)[0]) - 1  # skip the wall
    unit = np.zeros(diag.shape[1])
    unit[dof] = 1.0
    zero = np.zeros((off.shape[0], 1))
    bands = np.stack((np.hstack((zero, off)), diag, np.hstack((off, zero))),
                     axis=1)
    lhs = np.array([scipy.linalg.solve_banded((1, 1), ab, unit)[dof]
                    for ab in bands])
    gap = ((schur.anchors[r.anchor] - schur.anchors[anchor][:, None])
           + (r.delta - delta[:, None]))
    terms = weights / gap
    return np.abs(lhs - terms.sum(axis=1)) / np.max(np.abs(terms), axis=1)


@pytest.mark.parametrize("x_a", [ATOM_INSIDE, ATOM_OUTSIDE])
def test_intensities_are_the_partial_fractions_of_the_resolvent(x_a):
    # every mode of the pencil, so the sum is the whole resolvent diagonal;
    # a residue is only as good as its lam, so this certifies the brackets
    system = small_box_system(CASE_PRESETS["2"])
    modes = diagonalize(system)
    assert modes.n_modes == system.size
    weights = modes.intensity_at(x_a)
    assert np.max(partial_fraction_residuals(modes, x_a, weights)) \
        < PARTIAL_FRACTION_FLOOR
    planted = weights.copy()
    planted[np.argmax(weights)] *= 1.0 + 1e-3
    assert np.max(partial_fraction_residuals(modes, x_a, planted)) \
        > 1e3 * PARTIAL_FRACTION_FLOOR


def test_count_on_a_bin_counts_just_below_it():
    system = small_box_system(REFERENCE_MEDIA["lossless 1"])
    values = scipy.linalg.eigh(*dense_operators(system), eigvals_only=True)
    on_bin = float(system.bin_frequencies[0] ** 2)
    assert eigenvalue_count(system, on_bin)[0] == np.sum(values < on_bin)
    # a band edge on the bin still brackets the modes below it
    modes = diagonalize(system, band=(1.0, float(system.bin_frequencies[0])))
    assert modes.n_modes == np.sum((values >= 1.0) & (values <= on_bin))


# the drawn lam keeps this relative distance from every eigenvalue and bin,
# far above the ~1e-12 relative accuracy of the dense reference
COUNT_MARGIN = 1e-7


@st.composite
def small_pencils(draw):
    lossy = draw(st.booleans())
    medium = MediumSpec(
        omega_p=draw(st.sampled_from([0.0, 30.0, 100.0, 250.0])),
        omega_0=draw(st.floats(150.0, 900.0)),
        gamma=draw(st.floats(1.0, 100.0)) if lossy else 0.0,
        slab_half_length=draw(st.floats(0.015, 0.03125)),
    )
    return small_box_system(medium, n_bins=draw(st.integers(8, 14)),
                            box_length=draw(st.floats(0.25, 0.35)))


@settings(deadline=None, max_examples=25)
@given(system=small_pencils(),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6))
def test_count_is_monotone_and_matches_dense_eigh(system, fractions):
    values = scipy.linalg.eigh(*dense_operators(system), eigvals_only=True)
    lam = np.sort(np.asarray(fractions)) * 1.2 * values[-1] + 1.0
    special = np.concatenate((values, system.bin_frequencies**2))
    for x in lam:
        assume(np.min(np.abs(special - x)) > COUNT_MARGIN * x)
    counts = eigenvalue_count(system, lam)
    assert np.all(np.diff(counts) >= 0)
    np.testing.assert_array_equal(counts, np.searchsorted(values, lam))


@settings(deadline=None, max_examples=20)
@given(system=small_pencils())
def test_diagonalize_matches_dense_eigh_on_random_boxes(system):
    values = scipy.linalg.eigh(*dense_operators(system), eigvals_only=True)
    modes = diagonalize(system)
    assert modes.n_modes == values.size
    np.testing.assert_allclose(modes.frequencies, np.sqrt(values), rtol=1e-10)
    assert modes.normalization_residual < 1e-10


# ------------------------------- reference: the count one bracket per mode

def assert_grouped_count_is_per_mode(make_schur, band):
    """``_bisect`` against ``per_mode_bisect``: brackets to the bit, sweeps.

    Each runs on a fresh counter from ``make_schur``, over the eigenvalues
    the counts at the two ends of ``band`` (in lam) enclose.
    """
    runs = []
    for bisect in (micromodes._bisect, per_mode_bisect):
        schur = make_schur()
        first, last = schur.sweep(np.zeros(2, dtype=int),
                                  np.asarray(band, dtype=float))[0]
        schur.sweeps = 0
        anchor, delta = bisect(schur, first, last, *band)
        runs.append((anchor, delta.tobytes(), schur.sweeps))
    (anchor, delta, sweeps), (ref_anchor, ref_delta, ref_sweeps) = runs
    np.testing.assert_array_equal(anchor, ref_anchor)
    assert delta == ref_delta
    assert sweeps == ref_sweeps


@pytest.mark.parametrize("case", ["1A", "2A", "vacuum"])
def test_grouped_count_matches_the_per_mode_count_on_stock_bands(case):
    medium, _ = case_preset(case)
    bath = BathConfig()
    system = build_gevp(gevp_mesh(medium, bath), medium, bath)
    assert_grouped_count_is_per_mode(lambda: micromodes._Schur.of(system),
                                     (1.0, 1e6))  # the band of ``modes``


@settings(deadline=None, max_examples=15)
@given(system=small_pencils(), top=st.floats(0.05, 1.5))
def test_grouped_count_matches_the_per_mode_count_on_random_boxes(system,
                                                                  top):
    # the band ends short of the spectrum's top as often as past it
    lam_hi = top * float(np.max(system.em_s_diag / system.em_m_diag))
    assert_grouped_count_is_per_mode(lambda: micromodes._Schur.of(system),
                                     (0.0, lam_hi))


class BumpedCount:
    """A stand-in for ``_Schur`` whose count is off by one on a window.

    It counts the ``values`` below lam = anchors[anchor] + delta, plus
    ``bump`` (+1 or -1) for lam inside ``window``, so the count is not
    monotone there; the last pivot is 1 / sum_j 1 / (values_j - lam), which
    vanishes at each value with a pole between, as the pivot of S does.
    ``out_of_order`` tallies the sweeps whose counts fall somewhere as lam
    rises.
    """

    nearest = micromodes._Schur.nearest

    def __init__(self, values, anchors, window, bump):
        self.values = np.sort(values)
        self.anchors = anchors
        self.window = window
        self.bump = bump
        self.sweeps = 0
        self.out_of_order = 0

    def sweep(self, anchor, delta):
        lam = self.anchors[anchor] + delta
        counts = np.searchsorted(self.values, lam)
        counts += self.bump * ((self.window[0] < lam) & (lam < self.window[1]))
        with np.errstate(divide="ignore"):
            pivots = 1.0 / np.sum(1.0 / (self.values - lam[:, None]), axis=1)
        self.sweeps += 1
        self.out_of_order += bool(np.any(np.diff(counts[np.argsort(lam)]) < 0))
        return counts, pivots


@settings(deadline=None, max_examples=40)
@given(values=st.lists(st.floats(1.0, 100.0), min_size=2, max_size=40,
                       unique=True),
       mode=st.integers(0, 39), bump=st.sampled_from([-1, 1]),
       ends=st.tuples(st.floats(-0.5, 0.5), st.floats(0.0, 1.0)),
       anchors=st.lists(st.floats(1.0, 100.0), max_size=3, unique=True))
def test_grouped_count_splits_groups_as_per_mode_on_a_bumped_count(
        values, mode, bump, ends, anchors):
    # the window spans part of the gap next to one value, so probes there
    # read a count one off, out of order with their neighbours: a group
    # whose probes read k + 1, k, k + 1 splits three ways, as its modes do
    values = np.sort(values)
    k = mode % values.size
    gap = values[min(k + 1, values.size - 1)] - values[max(k - 1, 0)]
    start = values[k] + ends[0] * gap
    window = (start, start + ends[1] * 0.5 * gap)
    anchors = np.concatenate(([0.0], np.sort(anchors)))
    assert_grouped_count_is_per_mode(
        lambda: BumpedCount(values, anchors, window, bump), (0.5, 101.0))


def test_a_bumped_count_splits_a_group_at_its_out_of_order_probes():
    # ten values, so the first round spreads 25 probes over the one group;
    # the window reads the count 5 where it is 4, and a probe past it reads
    # 4 again, so that group splits at counts that are out of order
    made = []

    def bumped():
        made.append(BumpedCount(np.arange(1.0, 11.0), np.array([0.0]),
                                (4.3, 4.7), 1))
        return made[-1]

    assert_grouped_count_is_per_mode(bumped, (0.5, 10.5))
    assert made[0].out_of_order > 0


def test_grouped_count_calls_no_unique_columns(monkeypatch):
    # the groups share no probes, so _bisect sorts no columns to dedupe
    def refused(table):
        raise AssertionError("_bisect called unique_columns")

    system = small_box_system(CASE_PRESETS["2"])
    schur = micromodes._Schur.of(system)
    first, last = schur.count_at([1.0, 1e6])
    monkeypatch.setattr(micromodes, "unique_columns", refused)
    anchor, _ = micromodes._bisect(schur, first, last, 1.0, 1e6)
    assert anchor.size == last - first


@settings(deadline=None, max_examples=200)
@given(quarters=st.lists(st.integers(0, 40), min_size=2, max_size=30),
       omega=st.integers(-4, 164), count=st.integers(0, 12))
def test_spacing_near_is_the_argsort_form(quarters, omega, count):
    # quarters of a unit: duplicate frequencies and omega exactly midway
    # between two of them occur, and every distance is exact, so ties are
    # real ties, which the rule breaks toward the lower frequency
    frequencies = np.sort(quarters) / 4.0
    omega /= 4.0
    modes = ModeSet(frequencies, np.zeros((0, 2)), np.array([0.0, 1.0]), 0.0)
    order = np.argsort(np.abs(frequencies - omega), kind="stable")
    picked = np.sort(frequencies[order[:max(count, 2)]])
    assert modes.spacing_near(omega, count) == float(np.max(np.diff(picked)))


# (sweeps, columns) on the band ``modes`` diagonalizes: measured 49 sweeps
# over 31,060 columns on 1A and 50 over 31,645 on 2A, plus under 10%
# headroom. Secant steps without guard probes or multisection spent 75 over
# 49,549 on 1A, and 87 over 52,373 on 2A, whose slowest mode crept along
# its bracket by about one tol a round
STOCK_COUNT_WORK = {"1A": (53, 34_000), "2A": (55, 34_500)}


@pytest.mark.parametrize("case", sorted(STOCK_COUNT_WORK))
def test_stock_count_work_budget(monkeypatch, case):
    # counted, not timed: one call per pivot sweep, one column per lam
    work = {"sweeps": 0, "columns": 0}
    sweep = micromodes.pivot_sweep

    def counted(diag, off2):
        work["sweeps"] += 1
        work["columns"] += np.size(diag[0])
        return sweep(diag, off2)

    monkeypatch.setattr(micromodes, "pivot_sweep", counted)
    medium, _ = case_preset(case)
    bath = BathConfig()
    system = build_gevp(gevp_mesh(medium, bath), medium, bath)
    modes = diagonalize(system, band=(1.0, 1000.0))  # as ``modes --case``
    assert modes.count_sweeps == work["sweeps"]
    sweeps, columns = STOCK_COUNT_WORK[case]
    assert work["sweeps"] <= sweeps
    assert work["columns"] <= columns
    assert modes.normalization_residual < 1e-10


@settings(deadline=None, max_examples=50)
@given(columns=st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from([-1.5, -0.0, 0.0, 2.0, 7.25])),
    min_size=1, max_size=12))
def test_unique_columns_is_numpys_unique(columns):
    table = np.array(columns, dtype=float).T
    # the sort-based dedupe the eigenmode route shares with the mesh
    distinct, first, inverse = unique_columns(table)
    expected = np.unique(table, axis=1, return_index=True, return_inverse=True)
    np.testing.assert_array_equal(distinct, expected[0])
    np.testing.assert_array_equal(first, expected[1])
    np.testing.assert_array_equal(inverse, expected[2].ravel())
