"""Assembly and solve: textbook element values, dense cross-checks, pivots."""

import dataclasses
import gc
import os
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from _dense_reference import (
    dense_tridiagonal,
    element_quadrature,
    gamma_boundary,
    gamma_medium,
    gamma_sfa,
    in_slab,
    interpolate_p1,
    reciprocity_residual,
    relative_permittivity,
)
from _random_meshes import meshes
from scipy.linalg import eigh, eigh_tridiagonal, lapack

from slabqed import fem, greens, identities, purcell, scattering
from slabqed.cli import main
from slabqed.fem import (
    _SWEEP_BLOCK,
    GAUSS_NODES,
    GAUSS_WEIGHTS,
    Factorization,
    FieldSolution,
    SingularOperatorError,
    StaticBands,
    assemble,
    evaluate_field,
    factorization,
    inverse_iteration,
    lattice_wavenumber,
    p1_stencil,
    pivot_sweep,
    static_bands,
    twisted_residues,
    uniform_sweep,
)
from slabqed.greens import sample_green, solve_point_source
from slabqed.identities import check_thermal_equilibrium
from slabqed.medium import ATOM_INSIDE, ATOM_OUTSIDE, CASE_PRESETS
from slabqed.mesh import Mesh1D, build_box_mesh, build_mesh
from slabqed.purcell import compute_record, purcell_mesh, sweep
from slabqed.scattering import solve_scattering

CASE1 = CASE_PRESETS["1"]
VACUUM = CASE_PRESETS["vacuum"]


def uniform_vacuum_box(n_nodes, length=1.0):
    nodes = np.linspace(-0.5 * length, 0.5 * length, n_nodes)
    return Mesh1D(nodes, 0.03125)


def slab_indices(mesh):
    """The indices of the mesh's slab elements."""
    return np.arange(mesh.n_nodes - 1)[mesh.slab_elements]


def tridiag_matvec(diag, off, v):
    out = diag * v
    out[:-1] += off * v[1:]
    out[1:] += off * v[:-1]
    return out


def solved(lu, rhs):
    """L^{-1} rhs on the interior rows, solved in place on an owned copy."""
    return lu.solve(np.array(rhs, dtype=complex, order="F"))


def to_dense(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def test_vacuum_hat_matrix_values():
    # uniform vacuum mesh: stiffness rows 2/h, -1/h; mass rows 2h/3, h/6
    n = 11
    mesh = uniform_vacuum_box(n)
    h = 1.0 / (n - 1)
    system = assemble(mesh, VACUUM, 500.0)
    s_diag, s_off = system.stiffness_interior()
    m_diag, m_off = system.m_diag[1:-1], system.m_off[1:-1]
    np.testing.assert_allclose(s_diag, 2.0 / h, rtol=1e-13)
    np.testing.assert_allclose(s_off, -1.0 / h, rtol=1e-13)
    np.testing.assert_allclose(m_diag, 2.0 * h / 3.0, rtol=1e-13)
    np.testing.assert_allclose(m_off, h / 6.0, rtol=1e-13)
    assert np.all(s_diag.imag == 0) and np.all(m_diag.imag == 0)


def test_slab_and_open_boundary_enter_the_bands():
    mesh = build_mesh(CASE1, 700.0, 40.0, 0.05)
    system = assemble(mesh, CASE1, 500.0)
    slab = mesh.slab_elements
    # Lorentz loss shows up as a positive imaginary mass in the slab
    assert np.all(system.m_off[slab].imag > 0)
    # the outgoing condition makes S complex on the two end nodes alone
    n = mesh.n_nodes
    assert np.flatnonzero(system.s_diag.imag).tolist() == [1, n - 2]
    assert not np.any(system.s_off.imag)
    # outgoing flux leaves the domain: -Im S > 0 is the radiation loss
    assert np.all(system.s_diag.imag[[1, -2]] < 0)
    # vacuum gap stays purely real
    vac = np.ones(n - 1, dtype=bool)
    vac[slab] = False
    assert np.all(system.m_off[vac].imag == 0)


@pytest.mark.parametrize("k", [300.0, 500.0, 700.0])
def test_open_boundary_adds_b_rho_on_the_end_nodes(k):
    # an open mesh's bands are those of the same nodes as a closed box
    # except on the two nodes next to the walls, where the semi-infinite
    # vacuum lattice adds b rho: b the boundary element's off-diagonal,
    # rho = e^{i kt h} its outgoing step
    mesh = build_mesh(CASE1, 700.0, 40.0, 0.05)
    box = Mesh1D(mesh.nodes, mesh.slab_half_length)
    system, closed = assemble(mesh, CASE1, k), assemble(box, CASE1, k)
    for name in ("s_off", "m_diag", "m_off"):
        np.testing.assert_array_equal(getattr(system, name),
                                      getattr(closed, name))
    added = system.s_diag - closed.s_diag
    assert np.flatnonzero(added).tolist() == [1, mesh.n_nodes - 2]
    for wall, node in ((0, 1), (-1, -2)):
        h = mesh.element_lengths[wall]
        b = closed.s_off[wall] - k**2 * closed.m_off[wall]
        rho = np.exp(1j * lattice_wavenumber(k, h) * h)
        assert added[node] == pytest.approx(b * rho, rel=1e-15, abs=0.0)
        assert abs(rho) == pytest.approx(1.0, abs=1e-15)


def outgoing_step(k_e, m_d, m_o, k):
    """The root |rho| = 1, Im rho > 0 of b rho^2 + a rho + b = 0.

    a = 2 (k_e - k^2 m_d) and b = -k_e - k^2 m_o are the diagonal and the
    off-diagonal of a uniform vacuum lattice of elements (k_e, m_d, m_o).
    Re rho = c = -a / 2b, and 1 - c = -k^2 (m_d + m_o) / b is formed
    without the cancellation of k_e, which would cost Im rho half its
    digits as kh -> 0.
    """
    b = -k_e - k**2 * m_o
    one_minus_c = -k**2 * (m_d + m_o) / b
    return b, (1.0 - one_minus_c) + 1j * np.sqrt(
        one_minus_c * (2.0 - one_minus_c))


def reference_bands(mesh, medium, k):
    """Stiffness and mass bands from eps_r(x, k) at every Gauss point.

    The per-frequency formula ``assemble`` used before it split off the
    k-independent parts, plus the outgoing condition of an open mesh from
    the roots of the lattice stencil; kept here only as the reference.
    """
    h = mesh.element_lengths
    xg, half, _ = element_quadrature(mesh)
    eg = relative_permittivity(medium, xg, k)
    lo, hi = 0.5 * (1.0 - GAUSS_NODES), 0.5 * (1.0 + GAUSS_NODES)
    k_e = np.sum(GAUSS_WEIGHTS * np.ones_like(xg), axis=1) / (2.0 * h)
    common = eg * GAUSS_WEIGHTS * half
    s_diag = np.zeros(mesh.n_nodes, dtype=complex)
    m_diag = np.zeros(mesh.n_nodes, dtype=complex)
    s_diag[:-1] += k_e
    s_diag[1:] += k_e
    m_diag[:-1] += np.sum(common * lo**2, axis=1)
    m_diag[1:] += np.sum(common * hi**2, axis=1)
    m_off = np.sum(common * lo * hi, axis=1)
    if mesh.is_open:
        for wall, node in ((0, 1), (-1, -2)):
            b, rho = outgoing_step(k_e[wall],
                                   np.sum(common[wall] * lo**2).real,
                                   m_off[wall].real, k)
            s_diag[node] += b * rho
    return s_diag, -k_e.astype(complex), m_diag, m_off



def test_the_written_out_gauss_rule_is_leggauss_to_the_bit():
    # fem spells out leggauss(4) so that importing it loads no
    # numpy.polynomial; the literals must be numpy's rule, bit for bit
    nodes, weights = np.polynomial.legendre.leggauss(4)
    assert GAUSS_NODES.tobytes() == nodes.tobytes()
    assert GAUSS_WEIGHTS.tobytes() == weights.tobytes()

ASSEMBLY_MEDIA = {
    "vacuum": VACUUM,
    "1": CASE1,
    "2": CASE_PRESETS["2"],
    "lossless 1": dataclasses.replace(CASE1, gamma=0.0),
}


@settings(deadline=None, max_examples=30)
@given(k=st.floats(1.0, 2000.0), ppw=st.floats(10.0, 80.0),
       name=st.sampled_from(sorted(ASSEMBLY_MEDIA)), box=st.booleans())
@example(k=500.0, ppw=10.0, name="lossless 1", box=False)
def test_assemble_matches_the_per_gauss_point_formula(k, ppw, name, box):
    medium = ASSEMBLY_MEDIA[name]
    if box:
        mesh = build_box_mesh(medium, 700.0, ppw, 0.625)
    else:
        mesh = build_mesh(medium, 700.0, ppw, 0.05)
    with np.errstate(divide="ignore", invalid="ignore"):
        chi = complex(medium.susceptibility(k))
    if not np.isfinite(chi):
        # a lossless slab at k = omega_0 has no permittivity, so there
        # are no bands to compare: assemble must refuse instead
        with pytest.raises(ValueError, match="not finite"):
            assemble(mesh, medium, k)
        return
    system = assemble(mesh, medium, k)
    bands = (system.s_diag, system.s_off, system.m_diag, system.m_off)
    for band, reference in zip(bands, reference_bands(mesh, medium, k)):
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(band - reference)) <= 1e-14 * scale


@settings(deadline=None, max_examples=30)
@given(drawn=meshes(), k=st.floats(1.0, 2000.0))
def test_the_minus_x_load_is_the_conjugate_wave_load(drawn, k):
    # the LU keeps M_slab w and conjugates it for -x: M_slab is real, so
    # this is the load of the -x wave formed on its own
    mesh, medium = drawn
    assume(mesh.is_open)
    system = assemble(mesh, medium, k)
    lu = Factorization(system)
    np.testing.assert_array_equal(
        lu.incident_load(-1),
        slab_load(mesh, system, lu.wave(mesh.slab_nodes, -1)))
    np.testing.assert_array_equal(
        lu.incident_load(+1),
        slab_load(mesh, system, lu.wave(mesh.slab_nodes)))


def assert_bitwise_same_system(got, want):
    """Every field of two systems bitwise alike: the same mesh, equal
    scalars, equal bands, and None where the other has None."""
    for field in dataclasses.fields(fem.SystemMatrices):
        ours, theirs = getattr(got, field.name), getattr(want, field.name)
        if field.name == "mesh" or theirs is None:
            assert ours is theirs
        elif isinstance(theirs, np.ndarray):
            np.testing.assert_array_equal(ours, theirs, strict=True)
        else:
            assert type(ours) is type(theirs) and ours == theirs


@settings(deadline=None, max_examples=30)
@given(drawn=meshes(), ks=st.lists(st.floats(1.0, 2000.0), min_size=2,
                                   max_size=9))
def test_a_block_is_bitwise_each_k_assembled_alone(drawn, ks):
    # every system of a block is what its k gives alone, in every field:
    # the bands, the interior bands of L and their scale, k^2 chi(k),
    # theta, the wave on the slab and M_slab w there, and so are both
    # loads the LU of a block's system forms
    mesh, medium = drawn
    systems = assemble(mesh, medium, np.array(ks))
    assert len(systems) == len(ks)
    for k, system in zip(ks, systems):
        alone = assemble(mesh, medium, k)
        assert_bitwise_same_system(system, alone)
        assert alone.scale == max(np.abs(alone.l_diag).max(),
                                  np.abs(alone.l_off).max())
        if mesh.is_open:
            from_block, lu = Factorization(system), Factorization(alone)
            for direction in (+1, -1):
                np.testing.assert_array_equal(
                    from_block.incident_load(direction),
                    lu.incident_load(direction))
        else:
            assert system.slab_wave is None


@settings(deadline=None, max_examples=30)
@given(drawn=meshes(), ks=st.one_of(
    st.floats(1.0, 2000.0),
    st.lists(st.floats(1.0, 2000.0), min_size=1, max_size=9)))
def test_a_system_is_read_only_and_outlives_its_lus(drawn, ks):
    # every band of a system is read-only, an LU leaves it bitwise as
    # assembled, and two LUs of one system solve bitwise alike; each
    # system of a block is its k assembled alone
    mesh, medium = drawn
    got = assemble(mesh, medium, np.array(ks))
    systems = got if isinstance(ks, list) else [got]
    rhs = np.random.default_rng(2).normal(size=(mesh.n_interior, 2)) + 0j
    for k, system in zip(np.atleast_1d(ks).tolist(), systems):
        bands = {field.name: getattr(system, field.name)
                 for field in dataclasses.fields(system)
                 if isinstance(getattr(system, field.name), np.ndarray)}
        assert {"s_diag", "m_diag", "l_diag", "l_off"} <= set(bands)
        assert not any(band.flags.writeable for band in bands.values())
        kept = {name: band.copy() for name, band in bands.items()}
        first, second = Factorization(system), Factorization(system)
        for name, band in bands.items():
            np.testing.assert_array_equal(band, kept[name], strict=True)
        np.testing.assert_array_equal(solved(first, rhs),
                                      solved(second, rhs), strict=True)
        if isinstance(ks, list):
            assert_bitwise_same_system(system, assemble(mesh, medium, k))


def test_vacuum_box_bands_are_bitwise_the_reference():
    # the eigenmode route reads these bands' real interior parts from the
    # static bands (test_micromodes); its outputs keep their bytes
    mesh = build_box_mesh(CASE1, 700.0, 40.0, 0.625)
    system = assemble(mesh, VACUUM, 1.0)
    bands = (system.s_diag, system.s_off, system.m_diag, system.m_off)
    for band, reference in zip(bands, reference_bands(mesh, VACUUM, 1.0)):
        np.testing.assert_array_equal(band, reference)


@pytest.fixture
def static_built(monkeypatch):
    """The mesh of every StaticBands built while the test runs."""
    meshes = []
    init = StaticBands.__init__

    def counting(self, mesh):
        meshes.append(mesh)
        init(self, mesh)

    monkeypatch.setattr(StaticBands, "__init__", counting)
    return meshes


def test_static_bands_are_built_once_per_mesh_and_medium(static_built):
    # the bands hold nothing of the medium, so two media share one build
    mesh = lu_mesh()
    ks = np.linspace(300.0, 700.0, 9)
    sweep(mesh, CASE1, ks, 0.0625)
    assert static_built == [mesh]
    sweep(mesh, VACUUM, ks, 0.0625)
    assert static_built == [mesh]


def test_static_bands_are_released_with_their_mesh():
    mesh = lu_mesh()
    bands = weakref.ref(static_bands(mesh))
    assert bands() is not None
    del mesh
    gc.collect()
    assert bands() is None


def test_slab_reaching_the_open_boundary_is_refused():
    # the physical region ends at |x| = 0.0625 on these nodes, the boundary
    # elements' midpoints at |x| = 0.06272; the outgoing condition is the
    # vacuum lattice's, so an open mesh refuses a slab that reaches a
    # boundary element, and a closed box, whose walls are physical, takes it
    nodes = build_mesh(CASE1, 700.0, 20.0, 0.05,
                       observation_points=(-0.0625, 0.0, 0.0625)).nodes
    for a in (0.0628, 0.1):
        with pytest.raises(ValueError, match="open boundary"):
            Mesh1D(nodes, a, is_open=True)
        assert Mesh1D(nodes, a).slab_elements == slice(0, nodes.size - 1)
    assert Mesh1D(nodes, 0.0625, is_open=True).slab_elements == slice(
        1, nodes.size - 2)


def test_assemble_refuses_a_medium_with_another_slab():
    wide = dataclasses.replace(CASE1, slab_half_length=0.05)
    with pytest.raises(ValueError, match="slab half-length"):
        assemble(lu_mesh(), wide, 500.0)


def test_a_mesh_without_slab_elements_assembles_no_slab():
    # no element midpoint of this hand-built mesh lies in the slab (-a, a),
    # although Gauss points of the two elements at x = 0 do: the lossy
    # medium leaves the bands bitwise the vacuum ones (a Gauss-point slab
    # test added chi M_slab on nodes 4-6) and M_slab is zero
    mesh = uniform_vacuum_box(11)
    assert mesh.slab_nodes.start == mesh.slab_nodes.stop
    lossy, vacuum = assemble(mesh, CASE1, 500.0), assemble(mesh, VACUUM, 500.0)
    for name in ("s_diag", "s_off", "m_diag", "m_off"):
        np.testing.assert_array_equal(getattr(lossy, name),
                                      getattr(vacuum, name))
    assert not np.any(static_bands(mesh).slab_diag)


_LO, _HI = 0.5 * (1.0 - GAUSS_NODES), 0.5 * (1.0 + GAUSS_NODES)


def slab_load(mesh, system, values):
    """(L_vac - L) w at every node, for the values of w on the slab's
    nodes: the system's k^2 chi(k) times M_slab w (``fem._slab_product``),
    exactly zero off the slab, as ``Factorization.incident_load`` forms
    the load of the lattice wave."""
    load = np.zeros(mesh.n_nodes, dtype=complex)
    np.multiply(system.slab_term,
                fem._slab_product(fem.static_bands(mesh), values),
                out=load[mesh.slab_nodes])
    return load


def scatter_slab_load(mesh, scale, values):
    """Element-by-element scatter of scale * weights * values over the slab.

    ``values`` are given at the slab's Gauss points; the two ``np.add.at``
    calls are the reference for the band load ``slab_load``.
    """
    idx = slab_indices(mesh)
    _, half, _ = element_quadrature(mesh, idx)
    common = scale * half * GAUSS_WEIGHTS * values
    f = np.zeros(mesh.n_nodes, dtype=complex)
    np.add.at(f, idx, np.sum(common * _LO, axis=1))
    np.add.at(f, idx + 1, np.sum(common * _HI, axis=1))
    return f


@settings(deadline=None, max_examples=30)
@given(k=st.floats(50.0, 1500.0), ppw=st.floats(10.0, 80.0),
       half_length=st.floats(0.005, 0.04), box=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_slab_band_load_matches_the_gauss_point_scatter(k, ppw, half_length,
                                                        box, seed):
    medium = dataclasses.replace(CASE1, slab_half_length=half_length)
    if box:
        mesh = build_box_mesh(medium, 700.0, ppw, 0.625)
    else:
        mesh = build_mesh(medium, 700.0, ppw, 0.05)
    rng = np.random.default_rng(seed)
    wave = rng.normal(size=mesh.n_nodes) + 1j * rng.normal(size=mesh.n_nodes)
    scale = k**2 * medium.susceptibility(k)
    got = slab_load(mesh, assemble(mesh, medium, k), wave[mesh.slab_nodes])
    idx = slab_indices(mesh)
    interpolant = wave[idx, None] * _LO + wave[idx + 1, None] * _HI
    reference = scatter_slab_load(mesh, scale, interpolant)
    assert np.max(np.abs(got - reference)) <= 1e-13 * np.max(np.abs(reference))
    outside = np.ones(mesh.n_nodes, dtype=bool)
    outside[idx[0]:idx[-1] + 2] = False
    assert np.all(got[outside] == 0)


def dense_slab_term(mesh, medium, k):
    """L - L_vac as a dense matrix over all nodes, and max|L_vac|.

    Both operators from the per-Gauss-point formula (``reference_bands``),
    L_vac with the slab emptied, so they differ by the slab's term alone;
    the difference is good to round-off of the operators' scale.
    """
    operators = []
    for each in (medium, dataclasses.replace(medium, omega_p=0.0)):
        s_diag, s_off, m_diag, m_off = reference_bands(mesh, each, k)
        operators.append(dense_tridiagonal(s_diag - k**2 * m_diag,
                                           s_off - k**2 * m_off))
    return operators[0] - operators[1], np.abs(operators[1]).max()


@settings(deadline=None, max_examples=40)
@given(drawn=meshes(), lossless=st.booleans(), k=st.floats(50.0, 1500.0),
       seed=st.integers(0, 2**32 - 1))
def test_slab_readers_are_the_dense_operator_difference(drawn, lossless, k,
                                                        seed):
    # the load, the slab loss and the loss bands each read L - L_vac, the
    # term the slab adds to the operator, and nothing outside the slab
    mesh, medium = drawn
    assume(mesh.is_open)
    if lossless:
        medium = dataclasses.replace(medium, gamma=0.0)
        assume(not medium.pole_at(k))
    term, scale = dense_slab_term(mesh, medium, k)
    rng = np.random.default_rng(seed)
    u, v, w = (rng.normal(size=mesh.n_nodes)
               + 1j * rng.normal(size=mesh.n_nodes) for _ in range(3))
    slab = np.zeros(mesh.n_nodes, dtype=bool)
    slab[mesh.slab_nodes] = True
    u[~slab] = v[~slab] = w[~slab] = 0.0
    lu = factorization(mesh, medium, k)

    load = slab_load(mesh, assemble(mesh, medium, k), w[mesh.slab_nodes])
    assert np.max(np.abs(load + term @ w)) <= 1e-13 * scale * np.abs(w).max()
    assert np.all(load[~slab] == 0)

    loss = lu.slab_loss(u[mesh.slab_nodes], v[mesh.slab_nodes])
    reference = -np.vdot(v, term.imag @ u)
    bound = np.linalg.norm(u) * np.linalg.norm(v)
    assert abs(loss - reference) <= 1e-13 * scale * bound

    diag, off = assemble(mesh, medium, k).loss_interior()
    inner = -term.imag[1:-1, 1:-1]
    assert np.max(np.abs(diag - np.diag(inner))) <= 1e-13 * scale
    assert np.max(np.abs(off - np.diag(inner, 1))) <= 1e-13 * scale
    if lossless or medium.omega_p == 0.0:
        assert loss == 0 and not np.any(diag) and not np.any(off)


@settings(deadline=None, max_examples=40)
@given(drawn=meshes(), k=st.floats(50.0, 1500.0))
def test_narrowed_assembly_is_the_full_length_sum(drawn, k):
    # chi M_slab is added over its own nodes only; the mass bands equal
    # the sums formed over all n nodes, bitwise
    mesh, medium = drawn
    static = static_bands(mesh)
    system = assemble(mesh, medium, k)
    chi = complex(medium.susceptibility(k))
    m_diag = static.m0_diag + chi * static.slab_diag
    m_off = static.m0_off + chi * static.slab_off
    np.testing.assert_array_equal(system.m_diag, m_diag)
    np.testing.assert_array_equal(system.m_off, m_off)
    # the mesh's midpoint slices are the elements a Gauss-point test finds,
    # and the slab bands those of the Gauss-point mask, bitwise
    points, half, _ = element_quadrature(mesh)
    on_slab = in_slab(medium, points)
    np.testing.assert_array_equal(np.all(on_slab, axis=1),
                                  np.any(on_slab, axis=1))
    np.testing.assert_array_equal(slab_indices(mesh),
                                  np.flatnonzero(np.any(on_slab, axis=1)))
    for band, reference in zip((static.slab_diag, static.slab_off),
                               fem._mass_bands(half, on_slab)):
        np.testing.assert_array_equal(band, reference)


@pytest.mark.parametrize("label", ["1A", "1B", "2A", "2B"])
@pytest.mark.parametrize("omega", [300.0, 500.0, 504.0, 700.0])
def test_record_boundary_rate_is_bitwise_gamma_boundary(label, omega):
    medium = CASE_PRESETS[label[0]]
    x_a = {"A": ATOM_INSIDE, "B": ATOM_OUTSIDE}[label[1]]
    assert_record_is_the_route_functions(purcell_mesh(medium, x_a), medium,
                                         omega, x_a)


def assert_record_is_the_route_functions(mesh, medium, omega, x_a):
    """The sweep record's three rates, bitwise those of the route functions
    that oracle-compare and the identity checks call."""
    record = compute_record(mesh, medium, omega, x_a)
    samples = sample_green(mesh, medium, omega, x_a)
    states = [solve_scattering(mesh, medium, omega, d) for d in (+1, -1)]
    assert record.pf_sfa == gamma_sfa(samples)
    assert record.pf_m == gamma_medium(samples)
    assert record.pf_b == gamma_boundary(*states, x_a)


@settings(deadline=None, max_examples=40)
@given(drawn=meshes(), lossless=st.booleans(), inside=st.booleans(),
       pick=st.floats(0.0, 1.0), omega=st.floats(50.0, 1500.0))
def test_record_is_bitwise_the_route_functions_on_any_open_mesh(
        drawn, lossless, inside, pick, omega):
    mesh, medium = drawn
    assume(mesh.is_open)
    if lossless:
        medium = dataclasses.replace(medium, gamma=0.0)
        assume(omega != medium.omega_0)  # no permittivity at resonance
    # the atom at a node inside the slab, or outside it in the physical
    # region
    x = mesh.nodes[1:-1]
    sites = x[(np.abs(x) < medium.slab_half_length) == inside]
    assume(sites.size)
    x_a = float(sites[round(pick * (sites.size - 1))])
    assert_record_is_the_route_functions(mesh, medium, omega, x_a)


def test_block_solve_matches_column_solves():
    mesh = build_mesh(CASE1, 500.0, 12.0, 0.05)
    fact = Factorization(assemble(mesh, CASE1, 430.0))
    rng = np.random.default_rng(3)
    block = rng.normal(size=(mesh.n_interior, 3)) + 1j * rng.normal(
        size=(mesh.n_interior, 3))
    x = solved(fact, block)
    assert x.shape == (mesh.n_interior, 3)
    for j in range(3):
        np.testing.assert_array_equal(x[:, j], solved(fact, block[:, j]))


def test_solve_in_place_overwrites_its_block_with_the_solve():
    mesh = build_mesh(CASE1, 500.0, 12.0, 0.05)
    fact = Factorization(assemble(mesh, CASE1, 430.0))
    rng = np.random.default_rng(4)
    n = mesh.n_interior
    rhs = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    block = np.asfortranarray(rhs)
    assert fact.solve(block) is block
    np.testing.assert_array_equal(block, solved(fact, rhs))
    # gttrs must get the block itself: anything f2py would copy is refused
    read_only = np.asfortranarray(rhs)
    read_only.setflags(write=False)
    for bad in (np.ascontiguousarray(rhs), np.asfortranarray(rhs.real),
                read_only, block[:-1]):
        with pytest.raises(ValueError):
            fact.solve(bad)


def test_an_empty_block_is_returned_untouched():
    # gttrs on a block without columns corrupted the heap (an abort at a
    # later free); run in a child so such a crash fails this test alone
    code = (
        "import numpy as np\n"
        "from slabqed.fem import Factorization, assemble\n"
        "from slabqed.medium import CASE_PRESETS\n"
        "from slabqed.mesh import build_box_mesh\n"
        "medium = CASE_PRESETS['vacuum']\n"
        "mesh = build_box_mesh(medium, 700.0, 15.0, 0.625)\n"
        "lu = Factorization(assemble(mesh, medium, 500.0))\n"
        "for width in range(200):\n"
        "    block = np.zeros((mesh.n_interior, 0), complex, order='F')\n"
        "    assert lu.solve(block) is block\n"
        "    junk = [np.ones(width + 1) for _ in range(50)]\n"
        "    del block, junk\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("ratio", [0.5, 0.9, 1.1, 1.5, 1.9, 2.1, 10.0])
def test_singularity_test_is_the_relative_pivot_threshold(ratio):
    # L = [[1, 1, 0], [1, 1 + p, 0], [0, 0, 1]]: the second pivot is about
    # p, the scale max|L_ij| about 1 and the bands' 2-norm about 2, so
    # ratios p / 1e-14 between 1 and 2 pass the 2-norm screen and are
    # decided by the scale itself
    mesh = Mesh1D(np.linspace(0.0, 1.0, 5), 0.1)
    s_diag = np.array([0.0, 1.0, 1.0 + ratio * 1e-14, 1.0, 0.0],
                      dtype=complex)
    s_off = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    # k^2 M = 0, so L is S
    diag, off = s_diag[1:-1], s_off[1:-1]
    scale = max(np.abs(diag).max(), np.abs(off).max())
    system = fem.SystemMatrices(mesh=mesh, k=1.0, chi=0j, s_diag=s_diag,
                                s_off=s_off, m_diag=np.zeros(5, complex),
                                m_off=np.zeros(4, complex), l_diag=diag,
                                l_off=off, scale=scale, slab_term=0j)
    pivots = lapack.zgttrf(off, diag, off)[1]
    singular = np.abs(pivots).min() < 1e-14 * scale
    assert singular == (ratio < 1.0)
    if singular:
        with pytest.raises(SingularOperatorError):
            Factorization(system)
    else:
        Factorization(system)


def test_solve_matches_dense():
    mesh = build_mesh(CASE1, 500.0, 12.0, 0.05)
    system = assemble(mesh, CASE1, 430.0)
    diag, off = system.l_diag, system.l_off
    rng = np.random.default_rng(7)
    rhs = rng.normal(size=system.n_interior) + 1j * rng.normal(
        size=system.n_interior
    )
    x = solved(Factorization(system), rhs)
    dense = to_dense(diag, off)
    np.testing.assert_allclose(x, np.linalg.solve(dense, rhs), rtol=1e-11)
    assert x.shape == (system.n_interior,)


def test_factorization_is_reusable():
    mesh = uniform_vacuum_box(41)
    system = assemble(mesh, VACUUM, 30.0)
    fact = Factorization(system)
    rhs1 = np.ones(mesh.n_interior, dtype=complex)
    rhs2 = 1j * np.arange(mesh.n_interior, dtype=float)
    diag, off = system.l_diag, system.l_off
    for rhs in (rhs1, rhs2):
        np.testing.assert_allclose(
            tridiag_matvec(diag, off, solved(fact, rhs)), rhs, atol=1e-10
        )


def test_manufactured_solution_converges_quadratically():
    # u = sin(pi (x + 1/2)) on [-1/2, 1/2] solves -u'' - k^2 u = (pi^2 - k^2) u
    k = 10.0

    def solve_error(n_nodes):
        mesh = uniform_vacuum_box(n_nodes)
        system = assemble(mesh, VACUUM, k)
        u_exact = np.sin(np.pi * (mesh.nodes + 0.5))
        m_diag, m_off = system.m_diag[1:-1], system.m_off[1:-1]
        mu = tridiag_matvec(m_diag, m_off, u_exact[1:-1].astype(complex))
        # wall values are zero, so the clipped mass product is complete
        rhs = (np.pi**2 - k**2) * mu
        x = solved(Factorization(system), rhs)
        return np.max(np.abs(x - u_exact[1:-1]))

    err_coarse = solve_error(51)
    err_fine = solve_error(101)
    assert err_coarse < 2e-3
    ratio = err_coarse / err_fine
    assert 3.2 < ratio < 4.8  # second-order convergence


def test_singular_at_discrete_resonance():
    # hit an exact generalized eigenvalue of (S, M): factorization must refuse
    mesh = uniform_vacuum_box(12)
    probe = assemble(mesh, VACUUM, 1.0)
    s_diag, s_off = probe.stiffness_interior()
    m_diag, m_off = probe.m_diag[1:-1], probe.m_off[1:-1]
    # vacuum bands are real; generalized symmetric tridiagonal problem
    lam = eigh_tridiagonal(s_diag.real, s_off.real, eigvals_only=True)
    # crude shift-free approach: scan candidate k around the lowest mode of
    # L u = 0, i.e. solve det(S - k^2 M) = 0 through the dense eigensolver
    import scipy.linalg

    dense_s = to_dense(s_diag.real, s_off.real)
    dense_m = to_dense(m_diag.real, m_off.real)
    k_res = float(np.sqrt(scipy.linalg.eigh(dense_s, dense_m)[0][0]))
    with pytest.raises(SingularOperatorError):
        Factorization(assemble(mesh, VACUUM, k_res))
    # a detuned frequency is fine
    fact = Factorization(assemble(mesh, VACUUM, 0.9 * k_res))
    assert isinstance(fact, Factorization)
    assert lam.size == mesh.n_interior


def test_negative_pivots_count_negative_eigenvalues():
    rng = np.random.default_rng(3)
    n, m = 40, 25
    diag = rng.standard_normal((n, m))
    off = rng.standard_normal((n - 1, m))
    diag[5] = diag[3]  # rows may be shared
    counts = pivot_sweep(list(diag), list(off**2))[0]
    for j in range(m):
        lam = eigh_tridiagonal(diag[:, j], off[:, j], eigvals_only=True)
        assert counts[j] == np.sum(lam < 0)


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_negative_pivots_zero_pivot_counts_once(zero):
    # [[0, 1], [1, 0]] has eigenvalues -1 and 1 whichever sign the zero has
    counts = pivot_sweep([np.array([zero]), np.array([0.0])],
                         [np.array([1.0])])[0]
    assert counts.tolist() == [1]


def row_by_row_sweep(diag, off2):
    """The LDL^T pivot recurrence one row at a time: (negative count, last)."""
    pivot = np.array(diag[0], dtype=float)
    negative = np.signbit(pivot).astype(np.intp)
    with np.errstate(divide="ignore", invalid="ignore"):
        for row, coupling in zip(diag[1:], off2):
            pivot = row - coupling / pivot
            negative += np.signbit(pivot)
    return negative, pivot


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 128, 129, 995])
@pytest.mark.parametrize("m", [1, 5])
def test_pivot_sweep_is_bitwise_the_row_by_row_recurrence(n, m):
    rng = np.random.default_rng(n * 10 + m)
    diag = rng.standard_normal((n, m))
    off2 = rng.standard_normal((n - 1, m)) ** 2
    if n > 3:
        # column 0: an exact zero pivot at row 0, an infinite one after it,
        # and a zero coupling that brings the next one back to finite
        diag[0, 0] = 0.0
        off2[1, 0] = 0.0
    rows = list(diag)
    rows[n // 2] = rows[0]  # a shared row array, as _Schur passes them
    expected_count, expected_last = row_by_row_sweep(rows, list(off2))
    count, last = pivot_sweep(rows, list(off2))
    np.testing.assert_array_equal(count, expected_count)
    assert count.dtype == np.intp
    # bitwise, the infinite pivots included
    np.testing.assert_array_equal(last.view(np.int64),
                                  expected_last.view(np.int64))


def test_pivot_sweep_counts_every_negative_pivot_of_full_blocks():
    # every pivot negative: -2 - 1 / p stays below -1 from p = -2 on, over
    # several full blocks and past 255 rows, so a sign count kept in too
    # narrow an integer, per block or in total, would wrap
    assert _SWEEP_BLOCK <= 255
    n, m = 4 * _SWEEP_BLOCK + 5, 3
    diag = list(np.full((n, m), -2.0))
    off2 = list(np.ones((n - 1, m)))
    count, last = pivot_sweep(diag, off2)
    assert count.tolist() == [n] * m
    expected_count, expected_last = row_by_row_sweep(diag, off2)
    np.testing.assert_array_equal(count, expected_count)
    np.testing.assert_array_equal(last, expected_last)


def test_pivot_sweep_leaves_its_rows_untouched():
    diag = np.array([[1.0, -2.0], [0.5, 3.0], [2.0, 1.0]])
    off2 = np.array([[1.0, 4.0], [0.25, 1.0]])
    before = diag.copy(), off2.copy()
    count, last = pivot_sweep(list(diag), list(off2))
    np.testing.assert_array_equal(diag, before[0])
    np.testing.assert_array_equal(off2, before[1])
    for j in range(2):
        off = np.sqrt(off2[:, j])
        lam = eigh_tridiagonal(diag[:, j], off, eigvals_only=True)
        assert count[j] == np.sum(lam < 0)
        full = dense_tridiagonal(diag[:, j], off)
        # the last pivot is det / det of the leading block
        expected = np.linalg.det(full) / np.linalg.det(full[:-1, :-1])
        np.testing.assert_allclose(last[j], expected, rtol=1e-12)


def zero_gap(diag, off):
    """Distance of 0 from the eigenvalues of a symmetric tridiagonal whose
    first diagonal entry may be infinite (a zero pivot before it), which
    leaves the rest decoupled; inf for no rows."""
    if diag.size and np.isinf(diag[0]):
        diag, off = diag[1:], off[1:]
    if not diag.size:
        return np.inf
    return np.min(np.abs(eigh_tridiagonal(diag, off, eigvals_only=True)))


# c = diag / 2 sqrt(off2) on both sides of +-1, and close to either; a
# diagonal so tiny that off2 over it overflows is left out, as pivot_sweep
# warns of that overflow
RUN_SHAPES = st.floats(-3.0, 3.0).filter(
    lambda c: c == 0.0 or abs(c) > 1e-150) | st.builds(
    lambda side, sign, power: side * (1.0 + sign * 10.0**power),
    st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0]),
    st.floats(-15.0, -1.0))
# the pivot entering the run over sqrt(off2): the two walls of a run, a
# zero pivot of either sign before it, and any pivot in between
ENTERING = st.sampled_from([np.inf, -np.inf, 0.0, -0.0]) | st.builds(
    lambda sign, size: sign * size, st.sampled_from([-1.0, 1.0]),
    st.floats(1e-3, 1e3))


@settings(deadline=None, max_examples=300)
@given(count=st.integers(1, 500), c=RUN_SHAPES, b=st.floats(1e-3, 1e3),
       r=ENTERING)
@example(count=447, c=0.999, b=1600.0, r=np.inf)  # a stock box wall
@example(count=1, c=0.5, b=1.0, r=-0.0)
def test_uniform_sweep_is_the_recurrence_over_equal_rows(count, c, b, r):
    # the run entered with pivot p is the tridiagonal with diagonal 2 b c,
    # off-diagonal b and first entry 2 b c - b^2 / p. Its count is exact
    # wherever 0 lies more than 1e-12 of its scale from its eigenvalues;
    # the last pivot's relative error grows as 1 / the distance of 0 from
    # those and from the eigenvalues of the leading block, its zeros and
    # poles, for the recurrence too (float128 recurrence: 1.1e-11 at
    # 2.6e-8), so the pivots agree to 1e-12 from 1e-3 out and to 1e-15 /
    # that distance nearer (20,000 draws: at most 3.6e-13 and 1.2e-8 / d)
    diag, off2, entering = (np.array([2.0 * b * c]), np.array([b * b]),
                            np.array([r * b]))
    expected, expected_last = pivot_sweep([entering] + [diag] * count,
                                          [off2] * count)
    expected -= np.signbit(entering)
    negative, last = uniform_sweep(diag, np.array([b]), count, entering)
    assert negative.dtype == np.intp
    with np.errstate(divide="ignore"):
        first = diag[0] - off2[0] / entering[0]
    run = np.full(count, diag[0])
    run[0] = first
    coupling = np.full(count - 1, b)
    scale = abs(diag[0]) + 2.0 * b + (abs(first) if np.isfinite(first)
                                      else 0.0)
    at_zero = zero_gap(run, coupling) / scale
    assume(at_zero > 1e-12)
    assert negative[0] == expected[0]
    closest = min(at_zero, zero_gap(run[:-1], coupling[:-1]) / scale)
    if closest <= 1e-12:
        return  # on a pole, where the sign of a zero pivot picks the sign
    if np.isinf(expected_last[0]):  # a zero pivot entering one row
        assert last[0] == expected_last[0]
    else:
        assert abs(last[0] - expected_last[0]) <= 1e-12 * max(
            1.0, 1e-3 / closest) * abs(expected_last[0])


def test_uniform_sweep_takes_each_column_on_its_own_branch():
    # columns on both sides of c = +-1 and at it, from a wall and from
    # finite pivots of either sign, in one call; none has 0 as an
    # eigenvalue of a leading block
    c = np.array([-2.5, -1.0, -0.3, 0.1, 0.7, 1.0, 1.8])
    b = np.linspace(0.5, 2.0, c.size)
    diag, off2 = 2.0 * b * c, b * b
    for entering in (np.full(c.size, np.inf),
                     np.array([-3.1, -1.7, -0.45, 0.35, 1.3, 2.2, 0.8])):
        for count in (1, 2, 37):
            expected, expected_last = pivot_sweep(
                [entering] + [diag] * count, [off2] * count)
            expected -= np.signbit(entering)
            negative, last = uniform_sweep(diag, -b, count, entering)
            np.testing.assert_array_equal(negative, expected)
            np.testing.assert_allclose(last, expected_last, rtol=1e-12)


@pytest.mark.parametrize("j", [1, 9, 20, 31, 40])
def test_uniform_sweep_count_and_last_pivot_agree_at_the_runs_eigenvalues(j):
    # c within 64 ulps of the run's j-th eigenvalue, cos(j pi / (k + 1)),
    # where the last pivot crosses zero: a row past the run absorbs that
    # crossing, so the count of run and row stays put across it, as it
    # does for the recurrence over all rows, only if each count and the
    # sign of its last pivot agree to the last bit
    count = 40
    centre = np.cos(j * np.pi / (count + 1))
    c = centre + np.arange(-64, 65) * np.spacing(centre)
    diag, off, row = 2.0 * c, np.ones_like(c), np.full(c.size, 5.0)
    negative, last = uniform_sweep(diag, off, count, np.full(c.size, np.inf))
    negative += np.signbit(row - 1.0 / last)
    expected, _ = pivot_sweep([diag] * count + [row], [off] * count)
    np.testing.assert_array_equal(negative, expected)


@pytest.mark.parametrize("edge", [0, 7, 18])
def test_twisted_residues_are_the_squared_vector_entries(edge):
    # T(lam) = K - lam M with both bands lam-dependent; at each eigenvalue
    # the residues are x_edge^2 and x_edge+1^2 of the M-normalized vector.
    # Perturbed uniform chains keep every mode extended: a residue is only
    # as good as lam, and a weight far below lam's error times |T^-1|
    # (a mode localized away from the row) would be lost in that error.
    rng = np.random.default_rng(edge)
    n = 20
    k_diag, k_off = rng.uniform(2.0, 2.2, n), rng.uniform(-1.1, -0.9, n - 1)
    m_diag, m_off = rng.uniform(2.0, 2.2, n), rng.uniform(0.4, 0.6, n - 1)
    lam, vectors = eigh(dense_tridiagonal(k_diag, k_off),
                        dense_tridiagonal(m_diag, m_off))
    diag = k_diag[:, None] - lam * m_diag[:, None]
    off = k_off[:, None] - lam * m_off[:, None]
    ddiag = np.broadcast_to(-m_diag[:, None], diag.shape)
    doff2 = -2.0 * off * m_off[:, None]
    lo, hi, pivot = twisted_residues(diag, ddiag, off**2, doff2, edge)
    scale = np.max(vectors**2)
    np.testing.assert_allclose(lo, vectors[edge] ** 2, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(hi, vectors[edge + 1] ** 2, rtol=0,
                               atol=1e-12 * scale)
    product = vectors[edge] * vectors[edge + 1]
    clear = np.abs(product) > 1e-6 * scale
    assert np.count_nonzero(clear) > n // 2
    np.testing.assert_array_equal(np.sign(-off[edge] / pivot)[clear],
                                  np.sign(product)[clear])


def test_twisted_residues_survive_an_exact_zero_pivot():
    # tridiag(1, 2, 1) at lam = 2: the first pivot is exactly 0 and the
    # null vector (1, 0, -1)/sqrt(2) vanishes on row 1
    diag = np.full((3, 1), 0.0)
    ones = np.ones((2, 1))
    lo, hi, _ = twisted_residues(diag, -np.ones((3, 1)), ones, 0.0 * ones, 1)
    assert np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))
    np.testing.assert_allclose(lo, 0.0, atol=1e-12)
    np.testing.assert_allclose(hi, 0.5, rtol=1e-12)


def test_inverse_iteration_finds_the_null_vector():
    n = 30
    diag = np.full(n, 2.0)
    off = np.full(n - 1, -1.0)
    lam, vec = eigh_tridiagonal(diag, off, select="i", select_range=(4, 4))
    v = inverse_iteration((diag - lam)[None], off[None], np.ones((1, n)))
    assert abs(abs(v[0] @ vec[:, 0]) - 1.0) < 1e-12


def test_inverse_iteration_survives_an_exact_zero_pivot():
    # [[1,1,0],[1,2,1],[0,1,1]] is singular and its LU ends on an exact 0
    diag = np.array([[1.0, 2.0, 1.0]])
    off = np.array([[1.0, 1.0]])
    v = inverse_iteration(diag, off, np.array([[1.0, 0.3, -0.2]]))
    assert np.all(np.isfinite(v))
    expected = np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0)
    assert abs(abs(v[0] @ expected) - 1.0) < 1e-12


def draw(rng, shape, dtype):
    values = rng.normal(size=shape)
    return values + 1j * rng.normal(size=shape) if dtype == complex else values


@pytest.mark.parametrize("dtype, prefix", [(complex, "z"), (float, "d")])
def test_loaded_kernels_are_bitwise_scipys(dtype, prefix):
    # fem loads scipy's compiled wrapper itself; same kernels, same bits
    rng = np.random.default_rng(11)
    diag = draw(rng, 40, dtype) + 4.0  # pivots away from zero
    off = draw(rng, 39, dtype)
    b = np.asfortranarray(draw(rng, (40, 2), dtype))
    gttrf, gttrs = fem._tridiagonal_kernels(np.dtype(dtype))
    ref_gttrf = getattr(lapack, f"{prefix}gttrf")
    ref_gttrs = getattr(lapack, f"{prefix}gttrs")
    factors = gttrf(off, diag, off)
    reference = ref_gttrf(off, diag, off)
    for ours, theirs in zip(factors, reference):
        assert np.asarray(ours).dtype == np.asarray(theirs).dtype
        assert np.all(ours == theirs)
    for rhs in (b[:, 0], b):
        x, info = gttrs(*factors[:5], rhs)
        x_ref, info_ref = ref_gttrs(*reference[:5], rhs)
        assert info == info_ref == 0
        assert x.dtype == x_ref.dtype and np.all(x == x_ref)


def test_factorization_matches_scipys_kernels_bitwise():
    # the LU factors its bands in place; the factors and solves stay the
    # ones scipy's kernels give on copies of them
    mesh = build_mesh(CASE1, 500.0, 12.0, 0.05)
    system = assemble(mesh, CASE1, 430.0)
    diag, off = system.l_diag, system.l_off
    reference = lapack.zgttrf(off, diag, off)
    lu = Factorization(system)
    for ours, theirs in zip(lu._factors, reference):
        assert np.all(ours == theirs)
    rhs = np.random.default_rng(5).normal(size=(mesh.n_interior, 2))
    x_ref, _ = lapack.zgttrs(*reference[:5], rhs.astype(complex))
    assert np.all(solved(lu, rhs) == x_ref)


def test_solve_and_factorize_leave_their_inputs_untouched():
    # factorizing leaves the system's bands as they were, and solving
    # (which overwrites its block by design) leaves the LU's factors
    mesh = build_mesh(CASE1, 500.0, 12.0, 0.05)
    system = assemble(mesh, CASE1, 430.0)
    bands = [np.copy(getattr(system, name))
             for name in ("s_diag", "s_off", "m_diag", "m_off")]
    lu = Factorization(system)
    factors = [np.copy(factor) for factor in lu._factors]
    rng = np.random.default_rng(9)
    n = mesh.n_interior
    for rhs in (rng.normal(size=n),
                rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))):
        solved(lu, rhs)
    for ours, kept in zip(lu._factors, factors):
        np.testing.assert_array_equal(ours, kept)
    for name, band in zip(("s_diag", "s_off", "m_diag", "m_off"), bands):
        np.testing.assert_array_equal(getattr(system, name), band)


def test_evaluate_field_interpolation():
    mesh = uniform_vacuum_box(5, length=4.0)  # nodes at -2, -1, 0, 1, 2
    dofs = np.array([0.0, 1.0 + 1.0j, 0.5, -1.0j, 2.0])
    assert evaluate_field(mesh, dofs, -1.0) == 1.0 + 1.0j
    assert evaluate_field(mesh, dofs, -0.5) == pytest.approx(0.75 + 0.5j)
    np.testing.assert_allclose(
        evaluate_field(mesh, dofs, np.array([0.0, 2.0])), [0.5, 2.0]
    )
    with pytest.raises(ValueError):
        evaluate_field(mesh, dofs, 2.5)


@settings(deadline=None, max_examples=60)
@given(drawn=meshes(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_evaluate_field_is_np_interp_to_the_bit(drawn, seed, data):
    # the P1 stencil the grid readouts share is np.interp's arithmetic:
    # the node's value at a node, slope (x - x_j) + f_j elsewhere, on the
    # real and imaginary parts apart, signed zeros included
    mesh, _ = drawn
    rng = np.random.default_rng(seed)
    dofs = np.empty(mesh.n_nodes, dtype=complex)
    for part in (dofs.real, dofs.imag):
        part[:] = rng.normal(size=mesh.n_nodes) * 10.0 ** rng.integers(
            -300, 250, size=mesh.n_nodes)
        part[rng.random(mesh.n_nodes) < 0.2] = 0.0
        part[rng.random(mesh.n_nodes) < 0.2] = -0.0
    lo, hi = mesh.physical_region
    inside = mesh.nodes[(mesh.nodes >= lo) & (mesh.nodes <= hi)]
    x = np.array(data.draw(st.lists(
        st.floats(lo, hi) | st.sampled_from(inside), min_size=1,
        max_size=12)))
    expected = interpolate_p1(mesh.nodes, dofs, x)
    got = evaluate_field(mesh, dofs, x)
    assert got.tobytes() == expected.tobytes()
    one = evaluate_field(mesh, dofs, x[0])
    assert isinstance(one, complex)
    assert np.array(one).tobytes() == expected[:1].tobytes()


def test_p1_stencil_reads_the_last_node_and_refuses_points_outside():
    mesh = uniform_vacuum_box(5, length=4.0)  # nodes at -2, -1, 0, 1, 2
    at = p1_stencil(mesh, [2.0, -2.0, 0.5])
    np.testing.assert_array_equal(at.nodes, [[4, 0, 2], [3, 1, 3]])
    values = np.array([1.0, 2.0, 3.0, 4.0, 5.0 + 1j])
    np.testing.assert_array_equal(at(*values[at.nodes]), [5.0 + 1j, 1.0, 3.5])
    with pytest.raises(ValueError, match="physical region"):
        p1_stencil(mesh, [0.0, 2.5])


def test_a_scalar_point_past_a_port_reads_a_complex():
    # the interpolation of one point is 0-d, and the lattice wave past the
    # port scales it in place
    medium = CASE_PRESETS["1"]
    mesh = build_mesh(medium, 700.0, 40.0, 0.05, observation_points=[0.0])
    field = solve_point_source(mesh, medium, 500.0, 0.0)
    x = mesh.physical_region[1] + 0.1
    one = field(x)
    assert isinstance(one, complex)
    # numpy's scalar and array complex products may round apart
    assert abs(one - field([x])[0]) <= 1e-14 * abs(one)


def test_field_solution_wrapper():
    mesh = uniform_vacuum_box(5, length=4.0)
    sol = FieldSolution(mesh=mesh, k=1.0, dofs=np.arange(5, dtype=complex))
    assert sol(1.0) == 3.0
    assert sol.at_node(2) == 2.0


def test_bad_inputs():
    mesh = uniform_vacuum_box(11)
    with pytest.raises(ValueError):
        assemble(mesh, VACUUM, 0.0)
    fact = Factorization(assemble(mesh, VACUUM, 5.0))
    # complex, writable and Fortran-ordered, so only the shape is wrong
    for shape in (3, (3, 2), (9, 2, 2), ()):
        with pytest.raises(ValueError):
            fact.solve(np.ones(shape, dtype=complex, order="F"))


@pytest.mark.parametrize("k", [0.0, -5.0, np.nan, np.inf, -np.inf])
def test_a_frequency_that_is_not_finite_and_positive_is_refused(k):
    # refused by name before chi(k) is evaluated: a NaN or an infinite k
    # made numpy warn in the susceptibility and was then blamed on a
    # lossless slab at its resonance, even for case 1 (gamma = 50)
    mesh = lu_mesh()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"finite and > 0, got {k}$"):
            assemble(mesh, CASE1, k)
        with pytest.raises(ValueError, match=f"^sweep point omega_a = {k}: "
                                             f"k must be finite and > 0"):
            sweep(mesh, CASE1, [500.0, k], 0.0625)


# every solver that takes its LU from ``fem.factorization``, reduced to its
# result; x = 0.0625 is the outside atom site, a node of ``lu_mesh``
LU_ENTRY_POINTS = {
    "solve_scattering": lambda mesh, medium, k: solve_scattering(
        mesh, medium, k, +1).scattered.dofs,
    "solve_point_source": lambda mesh, medium, k: solve_point_source(
        mesh, medium, k, 0.0625).dofs,
    "sample_green": lambda mesh, medium, k: dataclasses.astuple(
        sample_green(mesh, medium, k, 0.0625)),
    "reciprocity_residual": lambda mesh, medium, k: reciprocity_residual(
        mesh, medium, k, 0.0, 0.0625),
    "check_thermal_equilibrium": lambda mesh, medium, k:
        check_thermal_equilibrium(mesh, medium, k, 0.0625, 0.0625),
    "compute_record": lambda mesh, medium, k: dataclasses.astuple(
        compute_record(mesh, medium, k, 0.0625)),
}


def lu_mesh():
    return build_mesh(CASE1, 700.0, 20.0, 0.05,
                      observation_points=(0.0, 0.0625))


@pytest.fixture
def built(monkeypatch):
    """The k of every Factorization constructed while the test runs."""
    ks = []
    init = Factorization.__init__

    def counting(self, system):
        ks.append(system.k)
        init(self, system)

    monkeypatch.setattr(Factorization, "__init__", counting)
    return ks


@pytest.mark.parametrize("entry", LU_ENTRY_POINTS)
def test_entry_point_builds_one_factorization(entry, built):
    run = LU_ENTRY_POINTS[entry]
    mesh = lu_mesh()
    first = run(mesh, CASE1, 500.0)
    assert built == [500.0]
    # a repeat reuses the mesh's LU and gives bitwise the same result
    np.testing.assert_array_equal(run(mesh, CASE1, 500.0), first)
    assert built == [500.0]


def test_sweep_builds_one_factorization_per_point(built):
    sweep(lu_mesh(), CASE1, [520.0, 410.0, 660.0], 0.0625)
    assert built == [410.0, 520.0, 660.0]


def test_a_block_row_is_factored_once(built):
    # a k asked for again while its LU is kept reuses that LU, and once
    # the LU was replaced it is assembled alone; a block's system outlives
    # its LU and, factored again, solves as before
    mesh, rng = lu_mesh(), np.random.default_rng(5)
    rhs = rng.normal(size=mesh.n_interior) + 0j
    reference = solved(Factorization(assemble(mesh, CASE1, 500.0)), rhs)
    systems = assemble(mesh, CASE1, np.array([500.0, 501.0]))
    lu = factorization(mesh, CASE1, 500.0, systems[0])
    assert factorization(mesh, CASE1, 500.0, systems[0]) is lu
    np.testing.assert_array_equal(solved(lu, rhs), reference)
    factorization(mesh, CASE1, 501.0, systems[1])
    lu = factorization(mesh, CASE1, 500.0)
    np.testing.assert_array_equal(solved(lu, rhs), reference)
    factorization(mesh, CASE1, 501.0, systems[1])
    lu = factorization(mesh, CASE1, 500.0, systems[0])
    np.testing.assert_array_equal(solved(lu, rhs), reference)
    assert built == [500.0, 500.0, 501.0, 500.0, 501.0, 500.0]


def test_oracle_compare_builds_one_factorization_per_point(built, tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("case = 1A\nsweep.count = 3\n")
    main(["oracle-compare", "--config", str(cfg),
          "--out", str(tmp_path / "o.csv")])
    assert built == [300.0, 500.0, 700.0]


@pytest.mark.parametrize("other", ["mesh", "medium", "k"])
@pytest.mark.parametrize("entry", LU_ENTRY_POINTS)
def test_changed_operator_gets_a_fresh_factorization(entry, other, built,
                                                     monkeypatch):
    # e.g. a vacuum operator's LU must not solve for a case-1 source
    run = LU_ENTRY_POINTS[entry]
    mesh = lu_mesh()
    run(mesh, CASE1, 500.0)
    call = dict(mesh=mesh, medium=CASE1, k=500.0)
    call[other] = {"mesh": lu_mesh(), "medium": VACUUM, "k": 501.0}[other]

    def direct(mesh, medium, k, system=None):
        return Factorization(assemble(mesh, medium, k))

    with monkeypatch.context() as patch:
        for module in (greens, scattering, identities, purcell):
            patch.setattr(module, "factorization", direct)
        reference = run(**call)
    del built[:]
    np.testing.assert_array_equal(run(**call), reference)
    assert built == [call["k"]]


def test_each_mesh_keeps_its_own_factorization(built):
    meshes = lu_mesh(), lu_mesh()
    lus = [factorization(mesh, CASE1, 500.0) for mesh in meshes]
    assert [factorization(mesh, CASE1, 500.0) for mesh in meshes] == lus
    assert built == [500.0, 500.0]


def test_factorization_is_released_with_its_mesh():
    mesh = lu_mesh()
    lu = weakref.ref(factorization(mesh, CASE1, 500.0))
    assert lu() is not None
    del mesh
    gc.collect()
    assert lu() is None


class Owner:
    """A weak-referenceable stand-in for a mesh or a system."""


class Value:
    """A fresh, weak-referenceable value per build."""


def test_kept_frees_the_old_value_before_building_the_new():
    owner = Owner()
    old = weakref.ref(fem.kept(owner, "slot", 1, Value))
    seen = []

    def build():
        seen.append(old())
        return Value()

    new = fem.kept(owner, "slot", 2, build)
    assert seen == [None]
    assert fem.kept(owner, "slot", 2, Value) is new


def test_kept_gives_each_owner_and_slot_its_own_entry():
    owners = Owner(), Owner()
    values = {(owner, slot): fem.kept(owner, slot, None, Value)
              for owner in owners for slot in ("a", "b")}
    assert len({id(value) for value in values.values()}) == 4
    # a new key in one entry leaves every other entry as it was
    fem.kept(owners[0], "a", 1, Value)
    for (owner, slot), value in values.items():
        if (owner, slot) != (owners[0], "a"):
            assert fem.kept(owner, slot, None, Value) is value


def test_kept_keeps_nothing_from_a_build_that_raises():
    owner = Owner()
    old = weakref.ref(fem.kept(owner, "slot", 1, Value))

    def failing():
        raise SingularOperatorError("no value")

    with pytest.raises(SingularOperatorError):
        fem.kept(owner, "slot", 2, failing)
    assert old() is None
    made = []

    def build():
        made.append(Value())
        return made[-1]

    assert fem.kept(owner, "slot", 2, build) is made[0]
    assert fem.kept(owner, "slot", 2, build) is made[0]
    assert len(made) == 1


@pytest.fixture
def builds(monkeypatch):
    """The slot of every value ``fem.kept`` builds while the test runs."""
    slots = []
    kept = fem.kept

    def counting(owner, slot, key, build):
        def counted():
            slots.append(slot)
            return build()
        return kept(owner, slot, key, counted)

    monkeypatch.setattr(fem, "kept", counting)
    return slots


def kept_static_bands(mesh, key):
    # sweeps of two media assemble at every k from the one set of bands
    for medium in (CASE1, VACUUM):
        sweep(mesh, medium, np.linspace(300.0, 700.0, 9), 0.0625)
    return static_bands(mesh)


def kept_factorization(mesh, key):
    # both directions of a solve and the reads after it share the LU
    lu = factorization(mesh, *key)
    states = [solve_scattering(mesh, key[0], key[1], d) for d in (+1, -1)]
    assert all(state.lu is lu for state in states)
    return lu


def kept_lattice_wave(mesh, key):
    # the LU carries the lattice wave the solves are driven by, as a
    # read-only phase
    phase = kept_factorization(mesh, key).phase
    assert not phase.flags.writeable
    return phase


def kept_lattice_values(mesh, key):
    # both directions read one kept, read-only copy of the +x values on
    # the slab, which the LU forms once
    lu = kept_factorization(mesh, key)
    values = lu.wave(mesh.slab_nodes)
    assert lu.wave(mesh.slab_nodes) is values
    np.testing.assert_array_equal(lu.wave(mesh.slab_nodes, -1),
                                  np.conj(values))
    assert not values.flags.writeable
    return values


# id -> (the slot that builds the value, a new owner, or a new mesh that
# keeps the owner, its keys, the value kept for a key once its callers have
# run); the lattice wave and its slab values are built with the LU
LU_KEYS = [(CASE1, 500.0), (VACUUM, 500.0), (CASE1, 501.0)]
KEPT_SLOTS = {
    "static_bands": ("static_bands", lu_mesh, [None], kept_static_bands),
    "factorization": ("factorization", lu_mesh, LU_KEYS, kept_factorization),
    "lattice_wave": ("factorization", lu_mesh, LU_KEYS, kept_lattice_wave),
    "values": ("factorization", lu_mesh, LU_KEYS, kept_lattice_values),
}


@pytest.mark.parametrize("slot", KEPT_SLOTS)
def test_a_kept_slot_is_built_once_per_key_and_freed_with_its_owner(
        slot, builds):
    slot, new_owner, keys, value_for = KEPT_SLOTS[slot]
    owner, other = new_owner(), new_owner()
    value = weakref.ref(value_for(owner, keys[0]))
    assert value_for(owner, keys[0]) is value()
    other_value = value_for(other, keys[0])
    assert other_value is not value()
    for key in keys[1:]:
        replaced, value = value, weakref.ref(value_for(owner, key))
        assert replaced() is None
        assert value_for(owner, key) is value()
    assert value_for(other, keys[0]) is other_value
    assert builds.count(slot) == len(keys) + 1
    del owner
    gc.collect()
    assert value() is None


def test_a_sweep_point_keeps_one_object_per_frequency_on_its_mesh():
    # the LU carries the lattice wave, so after one point the mesh keeps
    # the static bands, the atom's node and the LU: no phase steps, wave or
    # wave values of their own
    mesh = lu_mesh()
    compute_record(mesh, CASE1, 500.0, 0.0625)
    assert set(fem._KEPT[mesh]) == {"static_bands", "node", "factorization"}
