"""Assembly and solve: textbook element values, dense cross-checks, pivots."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, lapack

from slabqed import fem, greens, scattering
from slabqed.cli import main
from slabqed.fem import (
    GAUSS_NODES,
    GAUSS_WEIGHTS,
    Factorization,
    FieldSolution,
    SingularOperatorError,
    StaticBands,
    assemble,
    element_quadrature,
    evaluate_field,
    factorization,
    inverse_iteration,
    negative_pivots,
    static_bands,
)
from slabqed.greens import reciprocity_residual, sample_green, solve_point_source
from slabqed.identities import check_thermal_equilibrium
from slabqed.medium import CASE_PRESETS
from slabqed.mesh import Mesh1D, PmlSpec, Region, build_box_mesh, build_mesh
from slabqed.purcell import compute_record, sweep
from slabqed.scattering import solve_scattering

CASE1 = CASE_PRESETS["1"]
VACUUM = CASE_PRESETS["vacuum"]


def uniform_vacuum_box(n_nodes, length=1.0):
    nodes = np.linspace(-0.5 * length, 0.5 * length, n_nodes)
    tags = np.full(n_nodes - 1, Region.VACUUM, dtype=np.int8)
    return Mesh1D(nodes, tags, None, 0.03125)


def tridiag_matvec(diag, off, v):
    out = diag * v
    out[:-1] += off * v[1:]
    out[1:] += off * v[:-1]
    return out


def to_dense(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def test_vacuum_hat_matrix_values():
    # uniform vacuum mesh: stiffness rows 2/h, -1/h; mass rows 2h/3, h/6
    n = 11
    mesh = uniform_vacuum_box(n)
    h = 1.0 / (n - 1)
    system = assemble(mesh, VACUUM, 500.0)
    s_diag, s_off = system.stiffness_interior()
    m_diag, m_off = system.mass_interior()
    np.testing.assert_allclose(s_diag, 2.0 / h, rtol=1e-13)
    np.testing.assert_allclose(s_off, -1.0 / h, rtol=1e-13)
    np.testing.assert_allclose(m_diag, 2.0 * h / 3.0, rtol=1e-13)
    np.testing.assert_allclose(m_off, h / 6.0, rtol=1e-13)
    assert np.all(s_diag.imag == 0) and np.all(m_diag.imag == 0)


def test_slab_and_pml_enter_the_bands():
    mesh = build_mesh(CASE1, 700.0, 40.0, 0.05, PmlSpec(thickness=0.05))
    system = assemble(mesh, CASE1, 500.0)
    slab = mesh.slab_element_indices()
    pml = np.flatnonzero((mesh.element_region == Region.PML_LEFT)
                         | (mesh.element_region == Region.PML_RIGHT))
    # Lorentz loss shows up as a positive imaginary mass in the slab
    assert np.all(system.m_off[slab].imag > 0)
    # the stretch makes both bands complex inside the layers
    assert np.any(np.abs(system.s_off[pml].imag) > 0)
    assert np.any(np.abs(system.m_off[pml].imag) > 0)
    # vacuum gap stays purely real
    vac = np.flatnonzero(mesh.element_region == Region.VACUUM)
    assert np.all(system.s_off[vac].imag == 0)
    assert np.all(system.m_off[vac].imag == 0)


def reference_bands(mesh, medium, k):
    """Stiffness and mass bands from eps_r(x, k) s(x, k) at every Gauss point.

    The per-frequency formula ``assemble`` used before it split off the
    k-independent parts; kept here only as the reference.
    """
    h = mesh.element_lengths
    xg, half, _ = element_quadrature(mesh)
    sg = mesh.stretch_factor(xg, k)
    eg = medium.relative_permittivity(xg, k)
    lo, hi = 0.5 * (1.0 - GAUSS_NODES), 0.5 * (1.0 + GAUSS_NODES)
    k_e = np.sum(GAUSS_WEIGHTS / sg, axis=1) / (2.0 * h)
    common = eg * sg * GAUSS_WEIGHTS * half
    s_diag = np.zeros(mesh.n_nodes, dtype=complex)
    m_diag = np.zeros(mesh.n_nodes, dtype=complex)
    s_diag[:-1] += k_e
    s_diag[1:] += k_e
    m_diag[:-1] += np.sum(common * lo**2, axis=1)
    m_diag[1:] += np.sum(common * hi**2, axis=1)
    return s_diag, -k_e, m_diag, np.sum(common * lo * hi, axis=1)


ASSEMBLY_MEDIA = {
    "vacuum": VACUUM,
    "1": CASE1,
    "2": CASE_PRESETS["2"],
    "lossless 1": dataclasses.replace(CASE1, gamma=0.0),
}


@settings(deadline=None, max_examples=30)
@given(k=st.floats(1.0, 2000.0), ppw=st.floats(10.0, 80.0),
       name=st.sampled_from(sorted(ASSEMBLY_MEDIA)), box=st.booleans())
def test_assemble_matches_the_per_gauss_point_formula(k, ppw, name, box):
    medium = ASSEMBLY_MEDIA[name]
    if box:
        mesh = build_box_mesh(medium, 700.0, ppw, 0.625)
    else:
        mesh = build_mesh(medium, 700.0, ppw, 0.05, PmlSpec(thickness=0.05))
    system = assemble(mesh, medium, k)
    bands = (system.s_diag, system.s_off, system.m_diag, system.m_off)
    for band, reference in zip(bands, reference_bands(mesh, medium, k)):
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(band - reference)) <= 1e-14 * scale


def test_vacuum_box_bands_are_bitwise_the_reference():
    # the eigenmode route assembles exactly this; its outputs keep their bytes
    mesh = build_box_mesh(CASE1, 700.0, 40.0, 0.625)
    system = assemble(mesh, VACUUM, 1.0)
    bands = (system.s_diag, system.s_off, system.m_diag, system.m_off)
    for band, reference in zip(bands, reference_bands(mesh, VACUUM, 1.0)):
        np.testing.assert_array_equal(band, reference)


@pytest.fixture
def static_built(monkeypatch):
    """The medium of every StaticBands built while the test runs."""
    media = []
    init = StaticBands.__init__

    def counting(self, mesh, medium):
        media.append(medium)
        init(self, mesh, medium)

    monkeypatch.setattr(StaticBands, "__init__", counting)
    return media


def test_static_bands_are_built_once_per_mesh_and_medium(static_built):
    mesh = lu_mesh()
    ks = np.linspace(300.0, 700.0, 9)
    sweep(mesh, CASE1, ks, 0.0625)
    assert static_built == [CASE1]
    sweep(mesh, VACUUM, ks, 0.0625)
    assert static_built == [CASE1, VACUUM]


def test_static_bands_are_released_with_their_mesh():
    mesh = lu_mesh()
    bands = weakref.ref(static_bands(mesh, CASE1))
    assert bands() is not None
    del mesh
    gc.collect()
    assert bands() is None


def test_slab_reaching_into_the_absorbing_layer_is_refused():
    mesh = lu_mesh()
    wide = dataclasses.replace(CASE1, slab_half_length=0.1)
    with pytest.raises(ValueError, match="absorbing layer"):
        assemble(mesh, wide, 500.0)


def test_block_solve_matches_column_solves():
    mesh = build_mesh(CASE1, 500.0, 12.0, 0.05, PmlSpec(thickness=0.05))
    fact = Factorization(assemble(mesh, CASE1, 430.0))
    rng = np.random.default_rng(3)
    block = rng.normal(size=(mesh.n_interior, 3)) + 1j * rng.normal(
        size=(mesh.n_interior, 3))
    dofs = fact.solve(block)
    assert dofs.shape == (mesh.n_nodes, 3)
    for j in range(3):
        np.testing.assert_array_equal(dofs[:, j], fact.solve(block[:, j]))


def test_solve_matches_dense():
    mesh = build_mesh(CASE1, 500.0, 12.0, 0.05, PmlSpec(thickness=0.05))
    system = assemble(mesh, CASE1, 430.0)
    diag, off = system.operator_interior()
    rng = np.random.default_rng(7)
    rhs = rng.normal(size=system.n_interior) + 1j * rng.normal(
        size=system.n_interior
    )
    dofs = Factorization(system).solve(rhs)
    dense = to_dense(diag, off)
    np.testing.assert_allclose(
        dofs[1:-1], np.linalg.solve(dense, rhs), rtol=1e-11
    )
    assert dofs[0] == 0 and dofs[-1] == 0


def test_factorization_is_reusable():
    mesh = uniform_vacuum_box(41)
    system = assemble(mesh, VACUUM, 30.0)
    fact = Factorization(system)
    rhs1 = np.ones(mesh.n_interior, dtype=complex)
    rhs2 = 1j * np.arange(mesh.n_interior, dtype=float)
    diag, off = system.operator_interior()
    for rhs in (rhs1, rhs2):
        dofs = fact.solve(rhs)
        np.testing.assert_allclose(
            tridiag_matvec(diag, off, dofs[1:-1]), rhs, atol=1e-10
        )


def test_manufactured_solution_converges_quadratically():
    # u = sin(pi (x + 1/2)) on [-1/2, 1/2] solves -u'' - k^2 u = (pi^2 - k^2) u
    k = 10.0

    def solve_error(n_nodes):
        mesh = uniform_vacuum_box(n_nodes)
        system = assemble(mesh, VACUUM, k)
        u_exact = np.sin(np.pi * (mesh.nodes + 0.5))
        m_diag, m_off = system.mass_interior()
        mu = tridiag_matvec(m_diag, m_off, u_exact[1:-1].astype(complex))
        # wall values are zero, so the clipped mass product is complete
        rhs = (np.pi**2 - k**2) * mu
        dofs = Factorization(system).solve(rhs)
        return np.max(np.abs(dofs - u_exact))

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
    m_diag, m_off = probe.mass_interior()
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
    counts = negative_pivots(list(diag), list(off**2))
    for j in range(m):
        lam = eigh_tridiagonal(diag[:, j], off[:, j], eigvals_only=True)
        assert counts[j] == np.sum(lam < 0)


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_negative_pivots_zero_pivot_counts_once(zero):
    # [[0, 1], [1, 0]] has eigenvalues -1 and 1 whichever sign the zero has
    counts = negative_pivots([np.array([zero]), np.array([0.0])],
                             [np.array([1.0])])
    assert counts.tolist() == [1]


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
    mesh = build_mesh(CASE1, 500.0, 12.0, 0.05, PmlSpec(thickness=0.05))
    system = assemble(mesh, CASE1, 430.0)
    diag, off = system.operator_interior()
    reference = lapack.zgttrf(off, diag, off)
    lu = Factorization(system)
    for ours, theirs in zip(lu._factors, reference):
        assert np.all(ours == theirs)
    rhs = np.random.default_rng(5).normal(size=(mesh.n_interior, 2))
    x_ref, _ = lapack.zgttrs(*reference[:5], rhs.astype(complex))
    assert np.all(lu.solve(rhs)[1:-1] == x_ref)


def test_solve_and_factorize_leave_their_inputs_untouched():
    mesh = build_mesh(CASE1, 500.0, 12.0, 0.05, PmlSpec(thickness=0.05))
    system = assemble(mesh, CASE1, 430.0)
    bands = [np.copy(getattr(system, name))
             for name in ("s_diag", "s_off", "m_diag", "m_off")]
    lu = system.factorize()
    rng = np.random.default_rng(9)
    n = mesh.n_interior
    for rhs in (rng.normal(size=n),
                np.asfortranarray(rng.normal(size=(n, 3))
                                  + 1j * rng.normal(size=(n, 3)))):
        kept = rhs.copy()
        lu.solve(rhs)
        np.testing.assert_array_equal(rhs, kept)
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
    for rhs in (np.ones(3), np.ones((3, 2)), np.ones((9, 2, 2)), 1.0):
        with pytest.raises(ValueError):
            fact.solve(rhs)


# every solver that takes its LU from ``fem.factorization``, reduced to its
# result; x = 0.0625 is the outside atom site, a node of ``lu_mesh``
LU_ENTRY_POINTS = {
    "solve_scattering": lambda mesh, medium, k: solve_scattering(
        mesh, medium, k, +1).scattered.dofs,
    "solve_point_source": lambda mesh, medium, k: solve_point_source(
        mesh, medium, k, 0.0625).dofs,
    "sample_green": lambda mesh, medium, k: sample_green(
        mesh, medium, k, 0.0625).values,
    "reciprocity_residual": lambda mesh, medium, k: reciprocity_residual(
        mesh, medium, k, 0.0, 0.0625),
    "check_thermal_equilibrium": lambda mesh, medium, k:
        check_thermal_equilibrium(mesh, medium, k, 0.0625, 0.0625),
    "compute_record": lambda mesh, medium, k: dataclasses.astuple(
        compute_record(mesh, medium, k, 0.0625)),
}


def lu_mesh():
    return build_mesh(CASE1, 700.0, 20.0, 0.05, PmlSpec(thickness=0.05),
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

    def direct(mesh, medium, k):
        return Factorization(assemble(mesh, medium, k))

    with monkeypatch.context() as patch:
        for module in (greens, scattering):
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
