"""Point-source solves: vacuum closed form, reciprocity, slab sampling.

Tolerances on oracle comparisons follow the measured behavior of linear
elements at 40 points per wavelength: phases of propagating waves slip by
O((kh)^2) per unit distance (so complex-valued agreement degrades with
distance from the source), while magnitudes and the self value stay much
tighter. Convergence tests pin the O(h^2) rate itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slabqed.fem import static_bands
from slabqed.greens import (
    reciprocity_residual,
    sample_green,
    solve_point_source,
)
from slabqed.medium import CASE_PRESETS
from slabqed.mesh import PmlSpec, build_mesh
from slabqed.oracle import tmm_green

CASE1 = CASE_PRESETS["1"]
CASE2 = CASE_PRESETS["2"]
VACUUM = CASE_PRESETS["vacuum"]


def make_mesh(medium, ppw=40.0, obs=(0.0, 0.0625)):
    return build_mesh(medium, 700.0, ppw, 0.05, PmlSpec(thickness=0.05),
                      observation_points=obs)


def slab_quadrature(mesh):
    """Flat Gauss points and weights of the mesh's slab rule."""
    static = static_bands(mesh)
    return static.slab_points.ravel(), static.slab_weights.ravel()


def test_vacuum_self_value():
    # continuum limit is i/(2k); at k = 500 that is exactly 0.001i
    mesh = make_mesh(VACUUM)
    g = solve_point_source(mesh, VACUUM, 500.0, 0.0)
    self_val = g(0.0)
    assert self_val == pytest.approx(0.001j, rel=2e-3)


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
    x = np.linspace(mesh.x_inner_left, mesh.x_inner_right, 301)
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
        xq, _ = slab_quadrature(mesh)
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


def test_slab_quadrature_weights():
    mesh = make_mesh(CASE1)
    xq, wq = slab_quadrature(mesh)
    assert np.sum(wq) == pytest.approx(0.0625, rel=1e-12)
    assert np.all(np.abs(xq) < CASE1.slab_half_length)
    assert xq.size == 4 * (mesh.slab_elements.stop - mesh.slab_elements.start)
    assert np.all(wq > 0)


@settings(deadline=None)
@given(
    ppw=st.floats(10.0, 80.0),
    padding=st.floats(0.01, 0.1),
    fractions=st.lists(st.floats(-0.999, 0.999), max_size=4),
)
def test_any_mesh_keeps_its_nodes_and_slab_rule(ppw, padding, fractions):
    a = CASE1.slab_half_length
    obs = [f * (a + padding) for f in fractions]
    args = (CASE1, 700.0, ppw, padding, PmlSpec(thickness=0.05))
    if np.any(np.diff(np.unique([-a, a, *obs])) <= 1e-12):
        # two distinct points cannot both be nodes; refused, never moved
        with pytest.raises(ValueError, match="closer than"):
            build_mesh(*args, observation_points=obs)
        return
    mesh = build_mesh(*args, observation_points=obs)
    for x in obs:
        assert mesh.nodes[mesh.find_node(x)] == x  # bitwise, not approx
    xq, wq = slab_quadrature(mesh)
    assert np.sum(wq) == pytest.approx(CASE1.slab_length, rel=1e-12)
    assert np.all(np.abs(xq) < a)


def test_sample_green_consistency():
    mesh = make_mesh(CASE1)
    samples = sample_green(mesh, CASE1, 500.0, 0.0)
    field = solve_point_source(mesh, CASE1, 500.0, 0.0)
    assert samples.self_value == field(0.0)
    g = field.dofs[mesh.slab_nodes]
    assert samples.slab_intensity == static_bands(mesh).slab_inner(g, g).real
    assert samples.k == 500.0 and samples.x_atom == 0.0


def test_source_placement_errors():
    mesh = make_mesh(CASE1)
    with pytest.raises(ValueError):
        solve_point_source(mesh, CASE1, 500.0, 0.0123456)  # not a node
    with pytest.raises(ValueError):
        solve_point_source(mesh, CASE1, 500.0, mesh.nodes[0])  # wall
