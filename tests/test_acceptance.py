"""Acceptance gate: the eight headline claims, one test per claim.

Each numbered test pins the agreed tolerance at the agreed configuration
and fails honestly where the pinned resolution cannot reach it; companion
tests (suffixed ``_resolved``) rerun the identical code on a finer mesh to
show the miss is a resolution floor, not an implementation defect. The
analysis behind every red line lives in the project notes.
"""

import time

import numpy as np
import pytest
from _dense_reference import reciprocity_residual

from slabqed.crosscheck import oracle_residuals
from slabqed.fem import assemble
from slabqed.greens import solve_point_source
from slabqed.identities import (
    check_discrete_ddgt,
    check_lossless_identity_failure,
)
from slabqed.medium import ATOM_INSIDE, ATOM_OUTSIDE, CASE_PRESETS, case_preset
from slabqed.micromodes import (
    BathConfig,
    build_gevp,
    diagonalize,
    effective_susceptibility,
    gevp_mesh,
    purcell_from_modes,
)
from slabqed.purcell import purcell_mesh, sweep, sweep_grid
from slabqed.scattering import energy_balance, solve_scattering

CASES = ("1A", "1B", "2A", "2B")
GRID = sweep_grid()  # 101 points covering [300, 700]
I500 = 50  # GRID[50] == 500.0 exactly


@pytest.fixture(scope="module")
def pinned_sweeps():
    """All four scenarios on the pinned ppw = 40 production mesh."""
    out = {}
    for label in CASES:
        medium, x_a = case_preset(label)
        mesh = purcell_mesh(medium, x_a, k_max=float(GRID[-1]), ppw=40.0)
        start = time.monotonic()
        records = sweep(mesh, medium, GRID, x_a)
        out[label] = (records, time.monotonic() - start)
    return out


def worst_method_gap(records):
    return max(abs(r.pf_modified_ln - r.pf_sfa) / r.pf_sfa for r in records)


def test_acceptance_01_vacuum_baseline():
    """Empty slab: both field routes give exactly the free-space rate and
    the medium-only route gives exactly nothing."""
    medium, x_a = case_preset("vacuum")
    mesh = purcell_mesh(medium, x_a, k_max=float(GRID[-1]), ppw=80.0)
    start = time.monotonic()
    records = sweep(mesh, medium, GRID, x_a)
    elapsed = time.monotonic() - start
    pf_sfa = np.array([r.pf_sfa for r in records])
    pf_split = np.array([r.pf_modified_ln for r in records])
    np.testing.assert_allclose(pf_sfa, 1.0, atol=1e-3)
    np.testing.assert_allclose(pf_split, 1.0, atol=1e-3)
    assert all(r.pf_original_ln == 0.0 for r in records)
    assert elapsed < 5.0


def test_acceptance_02_cross_method_agreement(pinned_sweeps):
    """Split route vs density-of-states route within 2% everywhere, all
    four scenarios, at the pinned production resolution."""
    gaps = {}
    for label in CASES:
        records, elapsed = pinned_sweeps[label]
        assert elapsed < 60.0
        gaps[label] = worst_method_gap(records)
    assert all(g < 0.02 for g in gaps.values()), (
        f"worst relative gaps by scenario: "
        f"{ {k: round(v, 4) for k, v in gaps.items()} }; the outside-atom "
        f"scenarios ride the known lattice phase-slip floor at ppw = 40"
    )


def test_acceptance_02_cross_method_agreement_resolved():
    """Identical sweep on a halved mesh clears the 2% gate in all four
    scenarios, pinning the pinned-resolution misses on the mesh."""
    for label in CASES:
        medium, x_a = case_preset(label)
        mesh = purcell_mesh(medium, x_a, k_max=float(GRID[-1]), ppw=80.0)
        assert worst_method_gap(sweep(mesh, medium, GRID, x_a)) < 0.02


def test_acceptance_03_regime_structure(pinned_sweeps):
    """On resonance the opaque slab hides the boundary channel from an
    inside atom, while an outside atom exposes the medium-only model."""
    inside = pinned_sweeps["1A"][0][I500]
    assert inside.omega_a == 500.0
    assert inside.pf_b / inside.pf_modified_ln < 0.1
    assert abs(inside.pf_original_ln - inside.pf_sfa) / inside.pf_sfa < 0.1

    outside = pinned_sweeps["1B"][0][I500]
    assert (abs(outside.pf_original_ln - outside.pf_sfa)
            > abs(outside.pf_modified_ln - outside.pf_sfa))


def test_acceptance_04_thermal_balance_outside_atom(pinned_sweeps):
    """Zero-temperature balance residual at the outside site, both damping
    regimes, across the whole sweep, at the pinned resolution."""
    worst = {
        label: max(r.tec_residual for r in pinned_sweeps[label][0])
        for label in ("1B", "2B")
    }
    assert all(v < 0.01 for v in worst.values()), (
        f"worst balance residuals: "
        f"{ {k: round(v, 4) for k, v in worst.items()} }; same phase-slip "
        f"floor as the cross-method gap, see the notes"
    )


def test_acceptance_04_thermal_balance_resolved():
    for label in ("1B", "2B"):
        medium, x_a = case_preset(label)
        mesh = purcell_mesh(medium, x_a, k_max=float(GRID[-1]), ppw=160.0)
        records = sweep(mesh, medium, GRID, x_a)
        assert max(r.tec_residual for r in records) < 0.01


def test_acceptance_05_discrete_dissipation_identities():
    """The two-channel dissipation decomposition holds to round-off on
    every system; the medium-only shortcut visibly fails under radiation
    loss (vacuum) and that failure cannot be refined away."""
    start = time.monotonic()
    for name in ("vacuum", "1", "2"):
        medium = CASE_PRESETS[name]
        mesh = purcell_mesh(medium, ATOM_OUTSIDE, k_max=700.0, ppw=15.0)
        for k in (300.0, 500.0, 700.0):
            system = assemble(mesh, medium, k)
            assert system.n_interior <= 2000
            assert check_discrete_ddgt(system) < 1e-10
            if name == "vacuum":
                assert check_lossless_identity_failure(system) > 0.5
    assert time.monotonic() - start < 30.0


def worst_oracle_residual(ppw, ks=(300.0, 500.0, 700.0)):
    worst = 0.0
    for name in ("1", "2"):
        medium = CASE_PRESETS[name]
        for x_a in (ATOM_INSIDE, ATOM_OUTSIDE):
            mesh = purcell_mesh(medium, x_a, k_max=max(ks), ppw=ppw)
            worst = max(worst,
                        *oracle_residuals(mesh, medium, ks, x_a).ravel())
    return worst


def test_acceptance_06_oracle_agreement_pinned_mesh():
    """Scattering data, probe fields and point-source kernels against the
    independent transfer-matrix oracle at the production resolution."""
    worst = worst_oracle_residual(40.0)
    assert worst < 5e-3, (
        f"worst relative residual {worst:.2e}; the top of the band exceeds "
        f"the gate at ppw = 40 by the documented dispersion floor"
    )


def test_acceptance_06_oracle_convergence_rate():
    """Halving h must cut the dominant residual about fourfold."""
    coarse = worst_oracle_residual(40.0, ks=(700.0,))
    fine = worst_oracle_residual(80.0, ks=(700.0,))
    assert 2.5 < coarse / fine < 7.0


def test_acceptance_06_oracle_agreement_resolved_mesh():
    assert worst_oracle_residual(160.0) < 5e-3


def test_acceptance_07_structure_reciprocity_energy(pinned_sweeps):
    """Bookkeeping identities: the split route sums exactly, the
    medium-only route aliases its term exactly, point sources commute, and
    the scattering states conserve energy."""
    for label in CASES:
        for rec in pinned_sweeps[label][0]:
            assert rec.pf_modified_ln == rec.pf_b + rec.pf_m
            assert rec.pf_original_ln == rec.pf_m

    for name in ("1", "2"):
        medium = CASE_PRESETS[name]
        mesh = purcell_mesh(medium, ATOM_OUTSIDE, k_max=700.0, ppw=40.0)
        res = reciprocity_residual(mesh, medium, 500.0, ATOM_INSIDE,
                                   ATOM_OUTSIDE)
        assert res < 1e-10
        # the audit runs on the fine mesh; the absorbed power is the slab
        # band form of the nodal field, so the 1% balance holds at ppw 40
        # as well (test_scattering::test_energy_balance_on_the_sweep_mesh)
        fine = purcell_mesh(medium, ATOM_OUTSIDE, k_max=700.0, ppw=640.0)
        for k in (300.0, 500.0, 700.0):
            balance = energy_balance(solve_scattering(fine, medium, k, +1))
            assert balance.residual < 0.01


def test_acceptance_08_eigenmode_route():
    """The closed-box oscillator-bath diagonalization: the eliminated
    matter reproduces the medium response, an empty box reproduces free
    space, and the mode sum lands on the density-of-states rate."""
    start = time.monotonic()

    # bath quality, measured directly against the target response
    band = np.linspace(300.0, 700.0, 101)
    for name in ("1", "2"):
        medium = CASE_PRESETS[name]
        bath = BathConfig(n_bins=400)
        system = build_gevp(gevp_mesh(medium, bath), medium, bath)
        chi = np.array([medium.susceptibility(w) for w in band])
        fit = np.array([effective_susceptibility(system, float(w))
                        for w in band])
        assert np.max(np.abs(fit - chi) / np.abs(chi)) < 0.02

    # empty box: the Lorentzian-window mode sum reproduces free space
    vacuum = CASE_PRESETS["vacuum"]
    bath = BathConfig(box_length=1.25)
    vac_system = build_gevp(gevp_mesh(vacuum, bath), vacuum, bath)
    assert vac_system.size <= 4000
    vac_modes = diagonalize(vac_system, band=(1.0, 1000.0))
    eta = 4.0 * vac_modes.spacing_near(500.0)
    pf_vac = purcell_from_modes(vac_modes, 0.0, 500.0, eta)
    assert abs(pf_vac - 1.0) < 0.05

    # lossy slab, inside atom, on resonance: mode sum vs the LDOS route
    medium, x_a = case_preset("1A")
    bath = BathConfig()
    system = build_gevp(gevp_mesh(medium, bath), medium, bath)
    assert system.size <= 4000
    modes = diagonalize(system, band=(1.0, 1000.0))
    pf_modes = purcell_from_modes(modes, x_a, 500.0, 20.0)
    mesh = purcell_mesh(medium, x_a, k_max=500.0, ppw=40.0)
    field = solve_point_source(mesh, medium, 500.0, x_a)
    pf_ldos = 2.0 * 500.0 * complex(field(x_a)).imag
    assert abs(pf_modes - pf_ldos) / pf_ldos < 0.10

    assert time.monotonic() - start < 300.0
