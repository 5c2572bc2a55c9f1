"""Mesh construction: exact node placement, the slab run, boundary elements."""

import dataclasses
import math

import numpy as np
import pytest
from _random_meshes import meshes, open_meshes
from hypothesis import given, settings
from hypothesis import strategies as st

from slabqed import mesh as mesh_module
from slabqed.medium import CASE_PRESETS
from slabqed.mesh import (
    Mesh1D,
    build_box_mesh,
    build_mesh,
)
from slabqed.purcell import purcell_mesh

CASE1 = CASE_PRESETS["1"]


def standard_mesh(**overrides):
    kwargs = dict(
        medium=CASE1,
        k_max=700.0,
        points_per_wavelength=40.0,
        padding=0.05,
        observation_points=(0.0, 0.0625),
    )
    kwargs.update(overrides)
    return build_mesh(**kwargs)


def test_open_mesh_ends_one_padding_element_beyond_the_physical_region():
    # the physical region is the hull of the slab and the requested points,
    # [-a, 0.0625]; the wall nodes lie one element past it, and each wall
    # element has the length of the padding span it cuts
    mesh = standard_mesh()
    a = CASE1.slab_half_length
    assert mesh.is_open
    assert mesh.physical_region == (-a, 0.0625)
    assert (mesh.nodes[1], mesh.nodes[-2]) == mesh.physical_region
    h_target = 2.0 * math.pi / (700.0 * 40.0)
    h = mesh.element_lengths
    for wall, span in ((0, 0.05), (-1, a + 0.05 - 0.0625)):
        assert h[wall] == pytest.approx(
            span / math.ceil(span / h_target - 1e-9), rel=1e-12)
    # no more nodes than the physical region's spans need
    assert mesh.element_lengths.size == sum(
        math.ceil(length / h_target - 1e-9)
        for length in np.diff([-a, 0.0, a, 0.0625])
    ) + 2


@pytest.mark.parametrize("ppw,n_nodes", [(40.0, 423), (160.0, 1677)])
def test_stock_sweep_mesh_sizes(ppw, n_nodes):
    # the B cases' meshes keep [-a, x_B] and one wall element beyond each
    # end; the A cases' keep [-a, a], x_B a breakpoint past the right port
    assert purcell_mesh(CASE1, 0.0625, ppw=ppw).n_nodes == n_nodes
    assert purcell_mesh(CASE1, 0.0, ppw=ppw).n_nodes == {
        40.0: 283, 160.0: 1119}[ppw]


@settings(deadline=None, max_examples=40)
@given(drawn=open_meshes())
def test_open_mesh_is_the_hull_of_its_padded_layout(drawn):
    # the mesh is a contiguous slice of the uncut layout, bitwise, walls
    # included, from one node below the hull [min(-a, obs), max(a, obs)]
    # to one above it
    mesh, medium, layout, obs = drawn
    i0 = int(np.searchsorted(layout.nodes, mesh.nodes[0]))
    np.testing.assert_array_equal(layout.nodes[i0:i0 + mesh.n_nodes],
                                  mesh.nodes)
    a = medium.slab_half_length
    assert mesh.physical_region == (min((-a, *obs)), max((a, *obs)))
    assert mesh.n_nodes < layout.n_nodes


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
    # requested points on both sides put vacuum on both sides of the slab
    mesh = standard_mesh(observation_points=(-0.0625, 0.0, 0.0625))
    mids = mesh.element_midpoints
    a = CASE1.slab_half_length
    slab = mesh.slab_elements
    assert np.all(np.abs(mids[slab]) < a)
    vac = mids[np.r_[1:slab.start, slab.stop:mids.size - 1]]
    assert np.all((np.abs(vac) > a) & (np.abs(vac) < 0.0625))
    # the boundary elements lie beyond the physical region
    lo, hi = mesh.physical_region
    assert mids[0] < lo and mids[-1] > hi
    # every region is populated, in order, and together they tile the mesh
    assert 1 < slab.start < slab.stop < mids.size - 1
    assert mesh.slab_nodes == slice(slab.start, slab.stop + 1)
    # without a requested point below the slab the hull starts at -a: no
    # vacuum element lies between the left wall element and the slab
    assert standard_mesh().slab_elements.start == 1


def test_slab_element_lengths_cover_slab():
    mesh = standard_mesh()
    slab_len = mesh.element_lengths[mesh.slab_elements].sum()
    assert slab_len == pytest.approx(CASE1.slab_length, rel=1e-12)


def test_determinism():
    m1, m2 = standard_mesh(), standard_mesh()
    np.testing.assert_array_equal(m1.nodes, m2.nodes)
    assert m1.slab_elements == m2.slab_elements
    assert m1.physical_region == m2.physical_region


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


def test_an_open_mesh_needs_two_distinct_ports():
    # the outgoing condition adds b rho at nodes 1 and n - 2, which three
    # nodes would merge; a closed box of three nodes stands
    nodes = np.array([-1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="two distinct ports"):
        Mesh1D(nodes, 0.1, is_open=True)
    assert Mesh1D(nodes, 0.1).n_interior == 1
    assert Mesh1D(np.append(nodes, 2.0), 0.1, is_open=True).n_interior == 2


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
        dict(observation_points=(0.09,)),  # in the right boundary element
        dict(observation_points=(-0.25,)),  # outside the domain
        dict(hull_points=(0.01,)),  # not an observation point
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


def test_box_mesh():
    mesh = build_box_mesh(CASE1, 1200.0, 10.0, 0.625,
                          observation_points=(0.0, 0.0625))
    assert not mesh.is_open
    assert mesh.nodes[0] == -0.3125 and mesh.nodes[-1] == 0.3125
    # the walls of a closed box are physical: its region ends at them
    assert mesh.physical_region == (-0.3125, 0.3125)
    assert mesh.nodes[mesh.find_node(0.0625)] == 0.0625
    assert np.all(np.abs(mesh.element_midpoints[mesh.slab_elements])
                  < CASE1.slab_half_length)
    assert mesh.element_lengths[mesh.slab_elements].sum() == pytest.approx(
        CASE1.slab_length, rel=1e-12)
    with pytest.raises(ValueError):
        build_box_mesh(CASE1, 1200.0, 10.0, 0.2)  # under 4 slab lengths


@settings(deadline=None, max_examples=60)
@given(drawn=meshes())
def test_every_span_is_exactly_uniform(drawn):
    # a box lays out each span between breakpoints as start + j h, every
    # element of length h to the last bit; an open mesh keeps the
    # differences of its nodes, one span per element
    mesh, _ = drawn
    lengths = mesh.element_lengths
    first = 0
    for start, h, count in mesh.spans:
        assert mesh.nodes[first] == start
        assert np.all(lengths[first:first + count] == h)
        if not mesh.is_open:
            np.testing.assert_array_equal(
                mesh.nodes[first:first + count], start + np.arange(count) * h)
        first += count
    assert first == lengths.size
    if mesh.is_open:
        np.testing.assert_array_equal(lengths, np.diff(mesh.nodes))
    distinct, which = mesh.length_classes
    assert distinct.tolist() == sorted({h for _, h, _ in mesh.spans})
    np.testing.assert_array_equal(distinct[which], lengths)


def test_stock_box_spans():
    # the eigenmode box: the two walls, the slab's halves and the gap up
    # to the outside atom site, one class per distinct h
    mesh = build_box_mesh(CASE1, 1000.0, 10.0, 0.625,
                          observation_points=(0.0, 0.0625))
    assert [count for _, _, count in mesh.spans] == [448, 50, 50, 50, 398]
    assert [start for start, _, _ in mesh.spans] == [
        -0.3125, -0.03125, 0.0, 0.03125, 0.0625]
    assert mesh.length_classes[0].size == 3


def test_a_layout_above_the_node_bound_is_refused_before_any_node():
    # ~1e104 elements: counted from the spans, never allocated
    huge = dataclasses.replace(CASE1, slab_half_length=1e100)
    for build in (lambda: standard_mesh(medium=huge),
                  lambda: build_box_mesh(huge, 700.0, 10.0, 1e101)):
        with pytest.raises(mesh_module.InputError, match="above the bound"):
            build()
    # a box of half the bound is laid out, one of twice the bound is not
    h = 2.0 * math.pi / (700.0 * 10.0)
    bound = mesh_module.MAX_NODES
    assert build_box_mesh(CASE1, 700.0, 10.0, 0.5 * bound * h).n_nodes < bound
    with pytest.raises(mesh_module.InputError, match="above the bound"):
        build_box_mesh(CASE1, 700.0, 10.0, 2.0 * bound * h)


def test_a_padding_lost_beside_the_slab_is_refused():
    # a + padding rounds to a: the slab would reach the open boundary
    wide = dataclasses.replace(CASE1, slab_half_length=1e5)
    with pytest.raises(mesh_module.InputError, match="padding") as info:
        build_mesh(wide, 1e-3, 10.0, 1e-13, observation_points=(0.0,))
    assert info.value.breakpoints == (-1e5, 1e5)


def test_mesh1d_validation():
    with pytest.raises(ValueError):
        Mesh1D([0.0, 1.0, 0.5], 0.03125)  # not increasing
    with pytest.raises(ValueError):
        Mesh1D([0.0, 1.0], 0.03125)  # too few nodes


def test_mesh_arrays_are_frozen_so_derived_arrays_can_be_cached():
    nodes = np.array([-0.5, -0.25, 0.25, 1.0])
    mesh = Mesh1D(nodes, 0.25)
    nodes[1] = 0.3  # the mesh holds its own copy
    assert mesh.nodes[1] == -0.25
    assert mesh.element_lengths is mesh.element_lengths
    np.testing.assert_array_equal(mesh.element_lengths, [0.25, 0.5, 0.75])
    assert mesh.slab_elements == slice(1, 2)
    assert mesh.slab_nodes == slice(1, 3)
    assert mesh.physical_region == (-0.5, 1.0)
    for array in (mesh.nodes, mesh.element_lengths, mesh.element_midpoints):
        with pytest.raises(ValueError):
            array[0] = 0
