"""Point-source solves: vacuum closed form, reciprocity, slab sampling.

Tolerances on oracle comparisons follow the measured behavior of linear
elements at 40 points per wavelength: phases of propagating waves slip by
O((kh)^2) per unit distance (so complex-valued agreement degrades with
distance from the source), while magnitudes and the self value stay much
tighter. Convergence tests pin the O(h^2) rate itself.
"""

import dataclasses

import numpy as np
import pytest
from _dense_reference import element_quadrature, reciprocity_residual
from _random_meshes import CUT_FLOOR, dropped_padding, open_meshes
from hypothesis import given, settings
from hypothesis import strategies as st

from slabqed.fem import (
    Factorization,
    assemble,
    factorization,
    lattice_wavenumber,
    static_bands,
)
from slabqed.greens import (
    sample_green,
    solve_point_source,
)
from slabqed.medium import CASE_PRESETS
from slabqed.mesh import Mesh1D, build_mesh
from slabqed.oracle import tmm_green

CASE1 = CASE_PRESETS["1"]
CASE2 = CASE_PRESETS["2"]
VACUUM = CASE_PRESETS["vacuum"]


def make_mesh(medium, ppw=40.0, obs=(0.0, 0.0625)):
    return build_mesh(medium, 700.0, ppw, 0.05,
                      observation_points=obs)


def slab_points(mesh):
    """Flat Gauss points of the element rule on the mesh's slab."""
    points, _, _ = element_quadrature(mesh, mesh.slab_elements)
    return points.ravel()


def slab_mass_total(mesh):
    """The sum of every entry of M_slab: int_slab (sum_i phi_i)^2 dx, the
    slab length, since the hats sum to 1."""
    static = static_bands(mesh)
    total = np.sum(static.slab_diag) + 2.0 * np.sum(static.slab_off)
    assert total.imag == 0.0  # real bands, held as complex
    return float(total.real)


def test_vacuum_self_value():
    # continuum limit is i/(2k); at k = 500 that is exactly 0.001i
    mesh = make_mesh(VACUUM)
    g = solve_point_source(mesh, VACUUM, 500.0, 0.0)
    self_val = g(0.0)
    assert self_val == pytest.approx(0.001j, rel=2e-3)


def outer_span(mesh, side):
    """Nodes j = 1, 2, ... inward from one wall across the padding's first
    uniform span: element j, and element j - 1 from j = 2 on, has the
    length of element 1. Row 1 also reads the boundary element."""
    h = mesh.element_lengths if side < 0 else mesh.element_lengths[::-1]
    same = np.abs(h[1:] - h[1]) <= 1e-9 * h[1]
    run = int(np.argmin(same)) if not same.all() else same.size
    nodes = np.arange(1, run + 1)
    return nodes if side < 0 else mesh.n_nodes - 1 - nodes


@settings(deadline=None, max_examples=40)
@given(drawn=open_meshes(), k=st.floats(50.0, 1500.0), data=st.data())
def test_outgoing_boundary_leaves_the_padding_one_outgoing_wave(drawn, k,
                                                                 data):
    # on a mesh with a uniform vacuum span at each wall, the uncut padded
    # layout, from the wall inward to the source or the first change of
    # element length, a vacuum point-source field is the outgoing lattice
    # wave alone: each node is rho = e^{i kt h} times its inner neighbour
    _, _, mesh, _ = drawn
    vacuum = dataclasses.replace(VACUUM,
                                 slab_half_length=mesh.slab_half_length)
    src = data.draw(st.integers(1, mesh.n_nodes - 2))
    u = solve_point_source(mesh, vacuum, k, mesh.nodes[src]).dofs
    for side, wall in ((-1, 0), (+1, -1)):
        h = mesh.element_lengths[wall]
        rho = np.exp(1j * lattice_wavenumber(k, h) * h)
        span = outer_span(mesh, side)
        # rows j of the span, short of the source, obey the relation
        span = span[span < src] if side < 0 else span[span > src]
        inner = span - side
        np.testing.assert_allclose(u[span], rho * u[inner], rtol=1e-12,
                                   atol=0.0)


@settings(deadline=None, max_examples=40)
@given(drawn=open_meshes(), k=st.floats(50.0, 1500.0), data=st.data())
def test_cut_mesh_green_is_the_padded_layouts(drawn, k, data):
    # the exact outgoing boundary stands in for the dropped padding: G at
    # every kept node, and past the ports over the dropped padding, is the
    # uncut layout's G to round-off
    mesh, medium, layout, _ = drawn
    src = mesh.nodes[data.draw(st.integers(1, mesh.n_nodes - 2))]
    g = solve_point_source(mesh, medium, k, src)
    reference = solve_point_source(layout, medium, k, src)
    scale = np.abs(reference.dofs).max()
    i0 = int(np.searchsorted(layout.nodes, mesh.nodes[0]))
    kept = reference.dofs[i0 + 1:i0 + mesh.n_nodes - 1]
    assert np.abs(g.dofs[1:-1] - kept).max() < CUT_FLOOR * scale
    x = dropped_padding(mesh, layout, data)
    assert np.abs(g(x) - reference(x)).max() < CUT_FLOOR * scale


@pytest.mark.parametrize("k", [100.0, 500.0, 1500.0])
def test_uniform_vacuum_self_value_is_the_infinite_lattice_one(k):
    # on a uniform vacuum mesh the open boundary makes G the infinite
    # lattice's, G(x_j, x_j) = 1 / (a + 2 b rho) at every node, with a and
    # b the lattice's diagonal and off-diagonal; a box would ring instead
    n, h = 241, 1e-3
    mesh = Mesh1D(h * np.arange(n) - 0.12, VACUUM.slab_half_length,
                  is_open=True)
    system = assemble(mesh, VACUUM, k)
    green = Factorization(system).solve(
        np.eye(n - 2, dtype=complex, order="F"))
    a = 2.0 / h - k**2 * 2.0 * h / 3.0
    b = -1.0 / h - k**2 * h / 6.0
    rho = np.exp(1j * lattice_wavenumber(k, h) * h)
    np.testing.assert_allclose(np.diag(green), 1.0 / (a + 2.0 * b * rho),
                               rtol=1e-12, atol=0.0)


def test_vacuum_quarter_wave_phase():
    mesh = make_mesh(VACUUM, obs=(0.0, np.pi / 1000.0))
    k = 500.0
    g = solve_point_source(mesh, VACUUM, k, 0.0)
    # e^{ik lambda/4} = i turns i/(2k) into -1/(2k)
    assert g(np.pi / (2 * k)) == pytest.approx(-1.0 / (2 * k), rel=5e-3)


def test_vacuum_green_profile():
    mesh = make_mesh(VACUUM)
    k = 500.0
    g = solve_point_source(mesh, VACUUM, k, 0.0)
    x = np.linspace(*mesh.physical_region, 301)
    ref = (1j / (2 * k)) * np.exp(1j * k * np.abs(x))
    vals = g(x)
    scale = np.max(np.abs(ref))
    # magnitude is phase-slip free and tight across the whole window
    assert np.max(np.abs(np.abs(vals) - np.abs(ref))) / scale < 5e-3
    # complex agreement is distance limited; near field is what methods use
    near = np.abs(x) <= 2 * (2 * np.pi / k)
    assert np.max(np.abs(vals[near] - ref[near])) / scale < 1.5e-2
    assert np.max(np.abs(vals - ref)) / scale < 4e-2


@pytest.mark.parametrize("case", ["1", "2"])
def test_green_matches_oracle(case):
    medium = CASE_PRESETS[case]
    mesh = make_mesh(medium)
    k = 500.0
    for x_src in (0.0, 0.0625):
        g = solve_point_source(mesh, medium, k, x_src)
        x = np.linspace(-0.05, 0.07, 61)
        ref = tmm_green(medium, k, x, x_src)
        err = np.max(np.abs(g(x) - ref)) / np.max(np.abs(ref))
        assert err < 2e-2


def test_green_profile_converges_at_second_order():
    k = 500.0
    errs = {}
    for ppw in (40.0, 80.0):
        mesh = make_mesh(CASE1, ppw=ppw)
        g = solve_point_source(mesh, CASE1, k, 0.0625)
        xq = slab_points(mesh)
        ref = tmm_green(CASE1, k, xq, 0.0625)
        errs[ppw] = np.max(np.abs(g(xq) - ref)) / np.max(np.abs(ref))
    assert errs[80.0] < errs[40.0] / 2.5


def test_self_value_ldos_is_positive():
    for case in ("1", "2", "vacuum"):
        medium = CASE_PRESETS[case]
        mesh = make_mesh(medium)
        for k in (300.0, 500.0, 700.0):
            for x_a in (0.0, 0.0625):
                g = solve_point_source(mesh, medium, k, x_a)
                assert g(x_a).imag > 0


def test_reciprocity_is_exact():
    # complex symmetry of L makes G symmetric to solver round-off, with loss
    mesh = make_mesh(CASE1)
    res = reciprocity_residual(mesh, CASE1, 500.0, 0.0, 0.0625)
    assert res < 1e-10


def test_slab_mass_sums_to_the_slab_length():
    mesh = make_mesh(CASE1)
    assert slab_mass_total(mesh) == pytest.approx(0.0625, rel=1e-12)
    static = static_bands(mesh)
    assert np.all(static.slab_diag[mesh.slab_nodes].real > 0)
    assert np.all(static.slab_off[mesh.slab_elements].real > 0)
    assert np.all(np.abs(slab_points(mesh)) < CASE1.slab_half_length)


@settings(deadline=None)
@given(
    ppw=st.floats(10.0, 80.0),
    padding=st.floats(0.01, 0.1),
    fractions=st.lists(st.floats(-0.999, 0.999), max_size=4),
)
def test_any_mesh_keeps_its_nodes_and_slab_rule(ppw, padding, fractions):
    a = CASE1.slab_half_length
    obs = [f * (a + padding) for f in fractions]
    args = (CASE1, 700.0, ppw, padding)
    if np.any(np.diff(np.unique([-a, a, *obs])) <= 1e-12):
        # two distinct points cannot both be nodes; refused, never moved
        with pytest.raises(ValueError, match="closer than"):
            build_mesh(*args, observation_points=obs)
        return
    mesh = build_mesh(*args, observation_points=obs)
    for x in obs:
        assert mesh.nodes[mesh.find_node(x)] == x  # bitwise, not approx
    assert slab_mass_total(mesh) == pytest.approx(CASE1.slab_length,
                                                  rel=1e-12)
    assert np.all(np.abs(slab_points(mesh)) < a)


def test_sample_green_consistency():
    mesh = make_mesh(CASE1)
    samples = sample_green(mesh, CASE1, 500.0, 0.0)
    field = solve_point_source(mesh, CASE1, 500.0, 0.0)
    assert samples.self_value == field(0.0)
    g = field.dofs[mesh.slab_nodes]
    lu = factorization(mesh, CASE1, 500.0)
    assert samples.medium_loss == lu.slab_loss(g, g).real
    assert samples.k == 500.0 and samples.x_atom == 0.0


def test_source_placement_errors():
    mesh = make_mesh(CASE1)
    with pytest.raises(ValueError):
        solve_point_source(mesh, CASE1, 500.0, 0.0123456)  # not a node
    with pytest.raises(ValueError):
        solve_point_source(mesh, CASE1, 500.0, mesh.nodes[0])  # wall
