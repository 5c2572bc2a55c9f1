"""Scattering solves against the transfer-matrix reference.

r and t are per-unit-incident amplitudes, so oracle comparisons here use
absolute differences. At 40 points per wavelength the dominant error is the
O((kh)^2) phase slip of linear elements, which grows toward the top of the
frequency band; the sweet-spot frequencies get tight tolerances and the
band edge gets an explicit dispersion-floor + convergence test instead.
"""

import numpy as np
import pytest
from _random_meshes import (
    CUT_FLOOR,
    dropped_padding,
    meshes,
    open_meshes,
    padded_layout,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from slabqed.fem import (
    assemble,
    evaluate_field,
    factorization,
    lattice_wavenumber,
)
from slabqed.medium import ATOM_OUTSIDE, CASE_PRESETS
from slabqed.mesh import build_box_mesh, build_mesh
from slabqed.oracle import tmm_reflection_transmission, tmm_total_field
from slabqed.scattering import (
    EnergyBalance,
    energy_balance,
    extract_r_t,
    solve_scattering,
)
from slabqed.purcell import purcell_mesh

CASE1 = CASE_PRESETS["1"]
CASE2 = CASE_PRESETS["2"]
VACUUM = CASE_PRESETS["vacuum"]
PADDING = 0.05


def make_mesh(medium, ppw=40.0, obs=(0.0, 0.0625)):
    return build_mesh(medium, 700.0, ppw, PADDING, observation_points=obs)


def test_vacuum_scatters_nothing():
    mesh = make_mesh(VACUUM)
    sol = solve_scattering(mesh, VACUUM, 500.0, +1)
    assert np.max(np.abs(sol.scattered.dofs)) < 1e-12
    r, t = extract_r_t(sol)
    assert abs(r) < 1e-12
    assert t == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("omega", [300.0, 500.0])
@pytest.mark.parametrize("case", ["1", "2"])
def test_r_t_match_oracle(case, omega):
    medium = CASE_PRESETS[case]
    mesh = make_mesh(medium)
    sol = solve_scattering(mesh, medium, omega, +1)
    r, t = extract_r_t(sol)
    r_ref, t_ref = tmm_reflection_transmission(medium, omega)
    assert abs(r - r_ref) < 5e-3
    assert abs(t - t_ref) < 5e-3


def test_r_t_dispersion_floor_and_convergence():
    # at the band edge the phase slip dominates; halving h must cut it ~4x
    omega = 700.0
    errs = {}
    for ppw in (40.0, 80.0):
        mesh = make_mesh(CASE1, ppw=ppw)
        r, t = extract_r_t(solve_scattering(mesh, CASE1, omega, +1))
        r_ref, t_ref = tmm_reflection_transmission(CASE1, omega)
        errs[ppw] = max(abs(r - r_ref), abs(t - t_ref))
    assert errs[40.0] < 2.5e-2
    assert errs[80.0] < errs[40.0] / 2.5


@pytest.mark.parametrize("omega,tol", [(300.0, 5e-3), (500.0, 2.5e-2)])
def test_total_field_matches_oracle_pointwise(omega, tol):
    mesh = make_mesh(CASE1)
    sol = solve_scattering(mesh, CASE1, omega, +1)
    x = np.linspace(-0.07, 0.07, 101)  # spans slab and both vacuum gaps
    phi = sol.total_at(x)
    phi_ref = tmm_total_field(CASE1, omega, +1, x)
    scale = np.max(np.abs(phi_ref))
    assert np.max(np.abs(phi - phi_ref)) / scale < tol


def test_direction_symmetry_on_symmetric_mesh():
    # the slab is mirror symmetric, so +k and -k incidence see identical r, t
    # and mirrored total fields, to solver round-off on a symmetric mesh
    mesh = build_mesh(CASE1, 700.0, 40.0, PADDING,
                      observation_points=(-0.0625, 0.0, 0.0625))
    fwd = solve_scattering(mesh, CASE1, 500.0, +1)
    bwd = solve_scattering(mesh, CASE1, 500.0, -1)
    r_fwd, t_fwd = extract_r_t(fwd)
    r_bwd, t_bwd = extract_r_t(bwd)
    assert r_fwd == pytest.approx(r_bwd, rel=1e-10)
    assert t_fwd == pytest.approx(t_bwd, rel=1e-10)
    xs = np.array([-0.0625, 0.0, 0.01875, 0.0625])
    np.testing.assert_allclose(fwd.total_at(xs), bwd.total_at(-xs),
                               rtol=1e-9)


@pytest.mark.parametrize("case", ["1", "2"])
def test_energy_balance(case):
    # the flux deficit is a near cancellation of O(1) numbers off resonance;
    # on this fine mesh the balance holds to ~4e-6
    medium = CASE_PRESETS[case]
    mesh = make_mesh(medium, ppw=640.0)
    for omega in (300.0, 500.0, 700.0):
        balance = energy_balance(solve_scattering(mesh, medium, omega, +1))
        assert isinstance(balance, EnergyBalance)
        assert balance.flux_deficit > 0  # lossy slab absorbs
        assert balance.residual < 1e-2


@pytest.mark.parametrize("case", ["1", "2"])
def test_energy_balance_on_the_sweep_mesh(case):
    # the absorbed power is the slab band form of the nodal total field,
    # the P1 field the flux deficit is read from, so the balance holds at
    # the sweep's ppw 40 (it missed by up to 0.58 with the analytic
    # incident wave integrated at the Gauss points)
    medium = CASE_PRESETS[case]
    mesh = purcell_mesh(medium, ATOM_OUTSIDE, k_max=700.0, ppw=40.0)
    for omega in (300.0, 500.0, 700.0):
        balance = energy_balance(solve_scattering(mesh, medium, omega, +1))
        assert balance.residual < 1e-2


def test_energy_balance_vacuum_is_clean():
    mesh = make_mesh(VACUUM)
    balance = energy_balance(solve_scattering(mesh, VACUUM, 500.0, +1))
    assert abs(balance.flux_deficit) < 1e-10
    assert balance.residual < 1e-6


def test_outgoing_boundary_swallows_the_scattered_wave():
    # the exact outgoing boundary absorbs the scattered wave whole: in the
    # uniform span next to each wall of the uncut padded layout it is one
    # lattice wave of constant modulus, where any reflected part would
    # beat against it
    mesh = padded_layout(CASE1, 700.0, 40.0, PADDING, (0.0, 0.0625))
    sol = solve_scattering(mesh, CASE1, 500.0, +1)
    lo, hi = mesh.physical_region
    for span in (mesh.nodes >= lo) & (mesh.nodes <= -0.0625), (
            mesh.nodes >= 0.0625) & (mesh.nodes <= hi):
        modulus = np.abs(sol.scattered.dofs[span])
        assert modulus.size > 50
        assert np.ptp(modulus) < 1e-12 * modulus.max()


def test_r_t_refuse_a_closed_box():
    # node 1 of a box is no outgoing port, and the box's walls reflect what
    # the slab scatters: no scattering state, and so no r and t, is formed
    mesh = build_box_mesh(CASE1, 700.0, 40.0, 0.4)
    with pytest.raises(ValueError, match="closed box"):
        solve_scattering(mesh, CASE1, 500.0, +1)


def test_direction_must_be_plus_or_minus_one():
    mesh = make_mesh(CASE1)
    with pytest.raises(ValueError):
        solve_scattering(mesh, CASE1, 500.0, 0)


@pytest.mark.parametrize("omega", [300.0, 500.0])
def test_r_t_need_no_vacuum_gap(omega):
    # r and t are read at the ports, so a padding of half a wavelength,
    # which leaves no room for probes away from the face and the walls,
    # still gives them to the bounds of test_r_t_match_oracle
    mesh = build_mesh(CASE1, 700.0, 40.0, 0.0063)
    r, t = extract_r_t(solve_scattering(mesh, CASE1, omega, +1))
    r_ref, t_ref = tmm_reflection_transmission(CASE1, omega)
    assert abs(r - r_ref) < 5e-3
    assert abs(t - t_ref) < 5e-3


@pytest.mark.parametrize("k", [300.0, 700.0])
def test_lattice_wave_solves_the_vacuum_mesh(k):
    # L_vac annihilates the lattice wave at every physical node whose two
    # elements have one length; the analytic e^{ikx} misses by O((kh)^4)
    mesh = make_mesh(VACUUM)
    system = assemble(mesh, VACUUM, k)
    diag = system.s_diag - k**2 * system.m_diag
    off = system.s_off - k**2 * system.m_off

    def residual(u):
        r = diag * u
        r[:-1] += off * u[1:]
        r[1:] += off * u[:-1]
        return np.abs(r) / np.abs(diag).max()

    h = mesh.element_lengths
    j = np.arange(1, mesh.n_nodes - 1)
    lo, hi = mesh.physical_region
    keep = j[(mesh.nodes[j] > lo) & (mesh.nodes[j] < hi)
             & (np.abs(h[j - 1] - h[j]) < 1e-9 * h[j])]
    wave = factorization(mesh, VACUUM, k).wave(slice(None))
    assert residual(wave)[keep].max() < 1e-12
    assert residual(np.exp(1j * k * mesh.nodes))[keep].max() > 1e-8
    assert wave[mesh.find_node(0.0)] == 1.0  # the oracle's phase
    np.testing.assert_allclose(np.abs(wave), 1.0, atol=1e-15)


def test_lattice_state_in_vacuum_is_the_bare_wave():
    mesh = make_mesh(VACUUM)
    lu = factorization(mesh, VACUUM, 500.0)
    full = np.exp(1j * lu.phase)
    for d in (+1, -1):
        sol = solve_scattering(mesh, VACUUM, 500.0, d)
        assert np.max(np.abs(sol.scattered.dofs)) < 1e-12
        assert sol.lu is lu  # the mesh keeps one LU, and wave, per k
        expected = full if d > 0 else np.conj(full)
        np.testing.assert_array_equal(sol.lu.wave(slice(None), d), expected)
        physical = np.arange(1, mesh.n_nodes - 1)  # the walls are not read
        np.testing.assert_array_equal(
            sol.total_at_nodes(physical) - sol.scattered.dofs[physical],
            expected[1:-1])


@settings(deadline=None, max_examples=40)
@given(drawn=meshes(), k=st.floats(50.0, 1500.0),
       direction=st.sampled_from([+1, -1]), data=st.data())
def test_total_at_is_the_full_mesh_interpolation(drawn, k, direction, data):
    # the total is formed at the bracketing nodes alone; bitwise the P1
    # interpolation of the total formed at every node, at nodes included
    mesh, medium = drawn
    if not mesh.is_open:  # a box has no incident wave
        with pytest.raises(ValueError, match="closed box"):
            solve_scattering(mesh, medium, k, direction)
        return
    sol = solve_scattering(mesh, medium, k, direction)
    lo, hi = mesh.physical_region
    inside = mesh.nodes[(mesh.nodes >= lo) & (mesh.nodes <= hi)]
    x = np.array(data.draw(st.lists(
        st.floats(lo, hi) | st.sampled_from(inside), min_size=1,
        max_size=12)))
    total = sol.lu.wave(slice(None), direction) + sol.scattered.dofs
    np.testing.assert_array_equal(sol.total_at(x),
                                  evaluate_field(mesh, total, x))
    assert sol.total_at(x[0]) == evaluate_field(mesh, total, x[0])


@settings(deadline=None, max_examples=40)
@given(drawn=open_meshes(), k=st.floats(50.0, 1500.0),
       direction=st.sampled_from([+1, -1]), data=st.data())
def test_fields_past_the_ports_are_the_padded_layouts(drawn, k, direction,
                                                       data):
    # past the ports the scattered field is the outgoing lattice wave and
    # the incident wave's phase continues at the wall's spacing: over the
    # dropped padding, total and scattered fields are the uncut layout's
    # P1 interpolation to round-off
    mesh, medium, layout, _ = drawn
    sol = solve_scattering(mesh, medium, k, direction)
    reference = solve_scattering(layout, medium, k, direction)
    x = dropped_padding(mesh, layout, data)
    total = (reference.lu.wave(slice(None), direction)
             + reference.scattered.dofs)
    scale = max(np.abs(total).max(), 1.0)
    assert np.abs(sol.total_at(x)
                  - evaluate_field(layout, total, x)).max() < CUT_FLOOR * scale
    assert np.abs(sol.scattered(x) - evaluate_field(
        layout, reference.scattered.dofs, x)).max() < CUT_FLOOR * scale
    # a point alone reads a complex (bitwise the batch's: the test below)
    one = sol.total_at(x[0])
    assert isinstance(one, complex)
    assert abs(one - sol.total_at(x)[0]) < 1e-14 * scale


@settings(deadline=None, max_examples=40)
@given(drawn=open_meshes(), k=st.floats(50.0, 1500.0),
       direction=st.sampled_from([+1, -1]), data=st.data())
def test_a_point_past_a_port_reads_alone_as_among_others(drawn, k, direction,
                                                         data):
    # past the ports every value is a product of a port value and a
    # lattice hop (``fem.carried_past_port``), formed in real arithmetic:
    # numpy's complex product rounds apart for one value in place and for
    # several, so without it a point's bits hung on how many were asked
    mesh, medium, layout, _ = drawn
    sol = solve_scattering(mesh, medium, k, direction)
    x = dropped_padding(mesh, layout, data)
    for read in (sol.total_at, sol.scattered):
        together = read(x)
        alone = np.array([read(point) for point in x.tolist()])
        assert alone.tobytes() == together.tobytes()


@settings(deadline=None, max_examples=40)
@given(drawn=meshes(), k=st.floats(50.0, 1500.0), data=st.data())
def test_lattice_wave_on_any_nodes_is_the_full_length_wave(drawn, k, data):
    # kt once per distinct element length, exp only at the nodes asked
    # for: both bitwise the per-element, every-node forms
    mesh, medium = drawn
    lu = factorization(mesh, medium, k)
    if not mesh.is_open:  # a box has no incident wave
        assert lu.phase is None
        with pytest.raises(ValueError, match="closed box"):
            lu.wave(mesh.slab_nodes)
        return
    h = mesh.element_lengths
    theta = np.concatenate(([0.0], np.cumsum(lattice_wavenumber(k, h) * h)))
    theta -= np.interp(0.0, mesh.nodes, theta)
    np.testing.assert_array_equal(lu.phase, theta)
    full = np.exp(1j * theta)
    n = mesh.n_nodes
    index = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=20)),
                     dtype=int)
    lo = data.draw(st.integers(0, n))
    span = slice(lo, data.draw(st.integers(lo, n)))
    node = data.draw(st.integers(0, n - 1))
    for nodes in (index, span, node, mesh.slab_nodes):
        np.testing.assert_array_equal(lu.wave(nodes), full[nodes])
        np.testing.assert_array_equal(lu.wave(nodes, -1),
                                      np.conj(full)[nodes])


def test_lattice_wave_crosses_a_sliver_element():
    # a point 1e-10 past the slab face leaves a sliver element whose kh
    # rounds the lattice cosine to 1; the wave steps by kh there instead
    # of being refused as non-propagating
    mesh = make_mesh(CASE1, obs=(0.0, 0.03125 + 1e-10))
    assert mesh.element_lengths.min() < 2e-10
    assert lattice_wavenumber(50.0, 1e-10) == 50.0
    assert np.all(np.isfinite(assemble(mesh, CASE1, 50.0).phase))
    with pytest.raises(ValueError, match="no propagating"):
        lattice_wavenumber(50.0, 0.07)  # kh = 3.5 > sqrt(12): stopband


def test_closed_box_without_a_propagating_wave_refuses_only_the_wave():
    # at kh = 5 the lattice carries no propagating wave: the box's operator
    # is still assembled and factored, and a scattering solve is refused
    mesh = build_box_mesh(VACUUM, 10.0, 10.0, 0.4)
    k = 5.0 / mesh.h_max
    assert factorization(mesh, VACUUM, k).phase is None
    with pytest.raises(ValueError, match="closed box"):
        solve_scattering(mesh, VACUUM, k, +1)


def test_closed_box_has_no_incident_wave_where_its_lattice_carries_one():
    # at kh well inside the passband the box's lattice does carry a plane
    # wave, but its walls reflect what the slab scatters, so w + phi is no
    # scattering state: the LU has no phase, and the solve is refused. The
    # box is still factored and solved, for the identity checks
    mesh = build_box_mesh(VACUUM, 700.0, 40.0, 0.4)
    k = 500.0
    assert k * mesh.h_max < 1.0
    lu = factorization(mesh, VACUUM, k)
    assert lu.phase is None and assemble(mesh, VACUUM, k).phase is None
    for direction in (+1, -1):
        with pytest.raises(ValueError, match="closed box"):
            solve_scattering(mesh, VACUUM, k, direction)
    x = lu.solve(np.ones((mesh.n_interior, 1), dtype=complex, order="F"))
    assert np.all(np.isfinite(x))
