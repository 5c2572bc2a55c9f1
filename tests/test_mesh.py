"""Mesh construction: exact node placement, slab and layer runs, stretch."""

import math

import numpy as np
import pytest
from _random_meshes import meshes
from hypothesis import given, settings
from hypothesis import strategies as st

from slabqed import mesh as mesh_module
from slabqed.medium import CASE_PRESETS
from slabqed.mesh import (
    Mesh1D,
    PmlSpec,
    build_box_mesh,
    build_mesh,
)
from slabqed.purcell import purcell_mesh

CASE1 = CASE_PRESETS["1"]
PML = PmlSpec(thickness=0.05)


def standard_mesh(**overrides):
    kwargs = dict(
        medium=CASE1,
        k_max=700.0,
        points_per_wavelength=40.0,
        padding=0.05,
        pml=PML,
        observation_points=(0.0, 0.0625),
    )
    kwargs.update(overrides)
    return build_mesh(**kwargs)


def test_sigma_max_frozen():
    # (m+1) ln(1/R0) / (2d) = 4 * ln(1e10) / 0.1
    assert PML.sigma_max == pytest.approx(921.0340371976184, rel=1e-12)


def test_stretch_factor_frozen_at_outer_end():
    # s = 1 + (i/k) sigma_max at full depth; at k = 500 that is 1 + 1.8421i
    mesh = standard_mesh()
    s = mesh.stretch_factor(mesh.nodes[-1], 500.0)
    assert s.real == pytest.approx(1.0, abs=1e-14)
    assert s.imag == pytest.approx(1.8420680743952368, rel=1e-12)
    assert s.imag == pytest.approx(1.8421, abs=1e-4)


def test_stretch_factor_profile():
    mesh = standard_mesh()
    # exactly 1 everywhere outside the layers
    x_phys = np.linspace(-mesh.x_inner_right, mesh.x_inner_right, 57)
    np.testing.assert_array_equal(mesh.stretch_factor(x_phys, 500.0), 1.0)
    # cubic grading: half depth gives (1/2)^3 of the full imaginary part
    x_half = mesh.x_inner_right + 0.5 * PML.thickness
    s = mesh.stretch_factor(x_half, 500.0)
    assert s.imag == pytest.approx(1.8420680743952368 / 8.0, rel=1e-12)
    # symmetric on the left side
    s_left = mesh.stretch_factor(-x_half, 500.0)
    assert s_left == pytest.approx(s, rel=1e-14)


def test_requested_points_are_exact_nodes():
    mesh = standard_mesh()
    for x in (0.0, 0.0625, -0.03125, 0.03125):
        idx = mesh.find_node(x)
        assert mesh.nodes[idx] == x  # bitwise, not approx


def test_element_size_bound():
    mesh = standard_mesh()
    h_target = 2.0 * math.pi / (700.0 * 40.0)
    assert mesh.h_max <= h_target * (1.0 + 1e-9)
    assert np.all(np.diff(mesh.nodes) > 0)


def test_region_tags():
    mesh = standard_mesh()
    mids = mesh.element_midpoints
    a = CASE1.slab_half_length
    slab = mesh.slab_elements
    left, right = mesh.pml_runs
    assert np.all(np.abs(mids[slab]) < a)
    assert np.all(mids[left] < mesh.x_inner_left)
    assert np.all(mids[right] > mesh.x_inner_right)
    vac = mids[np.r_[left.stop:slab.start, slab.stop:right.start]]
    assert np.all((np.abs(vac) > a) & (np.abs(vac) < a + 0.05))
    # every region is populated, in order, and together they tile the mesh
    assert (0 == left.start < left.stop < slab.start < slab.stop
            < right.start < right.stop == mids.size)
    assert mesh.slab_nodes == slice(slab.start, slab.stop + 1)


def test_slab_element_lengths_cover_slab():
    mesh = standard_mesh()
    slab_len = mesh.element_lengths[mesh.slab_elements].sum()
    assert slab_len == pytest.approx(CASE1.slab_length, rel=1e-12)


def test_determinism():
    m1, m2 = standard_mesh(), standard_mesh()
    np.testing.assert_array_equal(m1.nodes, m2.nodes)
    assert m1.slab_elements == m2.slab_elements
    assert m1.pml_runs == m2.pml_runs


def test_near_coincident_points_are_refused():
    # merging them would move one requested point off its node
    a = CASE1.slab_half_length
    for obs in ((0.0, 1e-13), (a + 1e-13,)):
        with pytest.raises(ValueError, match="closer than"):
            standard_mesh(observation_points=obs)
    mesh = standard_mesh(observation_points=(a, a, 0.0))  # exact repeats
    assert mesh.nodes[mesh.find_node(a)] == a


@given(st.lists(st.one_of(st.integers(-20, 20).map(lambda i: i / 8),
                          st.floats(-1.0, 1.0)),
                min_size=1, max_size=25))
def test_dedupe_is_np_unique_or_refuses(values):
    # breakpoints are merged by sort and neighbour mask, not np.unique
    values += values[:3]  # exact repeats
    reference = np.unique(np.asarray(values, dtype=float))
    if np.any(np.diff(reference) <= 1e-12):
        with pytest.raises(ValueError, match="closer than"):
            mesh_module._dedupe(values)
    else:
        assert np.array_equal(mesh_module._dedupe(values), reference)


def test_dedupe_refuses_distinct_breakpoints_closer_than_tol():
    assert np.array_equal(mesh_module._dedupe([0.5, -0.25, 0.5, 0.5]),
                          [-0.25, 0.5])
    with pytest.raises(ValueError, match="closer than"):
        mesh_module._dedupe([0.5, 0.5 + 5e-13, -0.25])


def test_find_node_rejects_off_node_points():
    mesh = standard_mesh()
    with pytest.raises(ValueError):
        mesh.find_node(0.1234567)


@settings(deadline=None, max_examples=40)
@given(drawn=meshes(), data=st.data())
def test_find_node_is_the_argmin_node(drawn, data):
    # bisection finds the node an argmin over every node picks, and
    # refuses every point no node is within tol of (NaN and inf too)
    mesh, _ = drawn
    nodes = mesh.nodes
    x_node = nodes[data.draw(st.integers(0, nodes.size - 1))]
    near = data.draw(st.lists(st.floats(-2e-9, 2e-9), max_size=5))
    anywhere = data.draw(st.lists(st.floats(-1.0, 1.0), max_size=5))
    points = [x_node, *(x_node + e for e in near), *anywhere,
              math.nan, math.inf, -math.inf]
    for x in points:
        nearest = int(np.argmin(np.abs(nodes - x)))
        if abs(nodes[nearest] - x) <= 1e-9:
            assert mesh.find_node(x) == nearest
        else:
            with pytest.raises(ValueError, match="no mesh node"):
                mesh.find_node(x)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(points_per_wavelength=9.0),
        dict(padding=0.0),
        dict(k_max=-500.0),
        dict(observation_points=(0.09,)),  # inside the right layer
        dict(observation_points=(-0.25,)),  # outside the domain
    ],
)
def test_invalid_build_arguments(overrides):
    with pytest.raises(ValueError):
        standard_mesh(**overrides)


@pytest.mark.parametrize("point", [math.nan, math.inf, -math.inf])
def test_non_finite_observation_points_are_refused(point):
    # NaN compares False with both range ends, so it used to pass the range
    # check and fail later, converting NaN to an integer
    with pytest.raises(ValueError, match="observation points"):
        standard_mesh(observation_points=(0.0, point))
    with pytest.raises(ValueError, match="observation points"):
        build_box_mesh(CASE1, 1200.0, 10.0, 0.625,
                       observation_points=(point,))
    with pytest.raises(ValueError, match="observation points"):
        purcell_mesh(CASE1, point)


def test_pml_spec_validation():
    with pytest.raises(ValueError):
        PmlSpec(thickness=-0.01)
    with pytest.raises(ValueError):
        PmlSpec(thickness=0.05, grading_order=0)
    with pytest.raises(ValueError):
        PmlSpec(thickness=0.05, nominal_reflection=2.0)


def test_box_mesh():
    mesh = build_box_mesh(CASE1, 1200.0, 10.0, 0.625,
                          observation_points=(0.0, 0.0625))
    assert mesh.pml is None
    assert mesh.nodes[0] == -0.3125 and mesh.nodes[-1] == 0.3125
    assert mesh.nodes[mesh.find_node(0.0625)] == 0.0625
    # no absorbing layer: stretch is identically one
    np.testing.assert_array_equal(
        mesh.stretch_factor(mesh.nodes, 500.0), 1.0
    )
    assert mesh.pml_runs == ()
    assert np.all(np.abs(mesh.element_midpoints[mesh.slab_elements])
                  < CASE1.slab_half_length)
    assert mesh.element_lengths[mesh.slab_elements].sum() == pytest.approx(
        CASE1.slab_length, rel=1e-12)
    with pytest.raises(ValueError):
        build_box_mesh(CASE1, 1200.0, 10.0, 0.2)  # under 4 slab lengths


def test_mesh1d_validation():
    with pytest.raises(ValueError):
        Mesh1D([0.0, 1.0, 0.5], None, 0.03125)  # not increasing
    with pytest.raises(ValueError):
        Mesh1D([0.0, 1.0], None, 0.03125)  # too few nodes


def test_mesh_arrays_are_frozen_so_derived_arrays_can_be_cached():
    nodes = np.array([-0.5, -0.25, 0.25, 1.0])
    mesh = Mesh1D(nodes, None, 0.25)
    nodes[1] = 0.3  # the mesh holds its own copy
    assert mesh.nodes[1] == -0.25
    assert mesh.element_lengths is mesh.element_lengths
    np.testing.assert_array_equal(mesh.element_lengths, [0.25, 0.5, 0.75])
    assert mesh.slab_elements == slice(1, 2)
    assert mesh.slab_nodes == slice(1, 3)
    assert mesh.pml_runs == ()
    for array in (mesh.nodes, mesh.element_lengths, mesh.element_midpoints):
        with pytest.raises(ValueError):
            array[0] = 0
