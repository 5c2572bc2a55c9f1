"""The FEM-vs-oracle residuals behind ``oracle-compare``."""

import numpy as np
import pytest
from _dense_reference import (
    interpolate_p1,
    per_frequency_oracle_residuals,
    per_frequency_readouts,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from slabqed.cli import _fmt, build_config, main
from slabqed.crosscheck import (
    PROBES,
    fem_readouts,
    green_samples,
    oracle_residuals,
)
from slabqed.greens import solve_point_source
from slabqed.medium import ATOM_INSIDE, ATOM_OUTSIDE, CASE_PRESETS, MediumSpec
from slabqed.mesh import build_mesh
from slabqed.oracle import (
    tmm_green,
    tmm_reflection_transmission,
    tmm_total_field,
)
from slabqed.purcell import purcell_mesh
from slabqed.scattering import solve_scattering

# The oracle over an array of frequencies against one call per frequency:
# one frequency is worked as an array of one, with the same numpy
# operations, and reads the grid's values bitwise on the stock media and
# the lossless example below. The bound is not zero because numpy's
# complex multiply may round one value apart from several (its vector
# loop may fuse multiply-adds), so bitwise agreement can fail on another
# CPU; 16 eps, each relative to its own scale below, is the bound kept
# from when one frequency had an arithmetic of its own.
ORACLE_ULPS = 16.0


def bitwise(a):
    """The bytes of a complex array, so -0.0 and 0.0 tell apart."""
    return np.ascontiguousarray(a, dtype=complex).view(np.uint64)


def assert_grid_oracle_matches_scalar(medium, grid, x_a):
    sample = green_samples(medium)
    r, t = tmm_reflection_transmission(medium, grid)
    field = tmm_total_field(medium, grid, +1, PROBES)
    green = tmm_green(medium, grid, sample, x_a)
    assert r.shape == t.shape == grid.shape
    assert field.shape == (grid.size, PROBES.size)
    assert green.shape == (grid.size, sample.size)
    tol = ORACLE_ULPS * np.finfo(float).eps
    for i, omega in enumerate(grid.tolist()):
        r_one, t_one = tmm_reflection_transmission(medium, omega)
        scale = max(abs(r_one), abs(t_one))
        assert abs(r[i] - r_one) <= tol * scale
        assert abs(t[i] - t_one) <= tol * scale
        field_one = tmm_total_field(medium, omega, +1, PROBES)
        assert np.abs(field[i] - field_one).max() <= (
            tol * np.abs(field_one).max())
        green_one = tmm_green(medium, omega, sample, x_a)
        assert np.abs(green[i] - green_one).max() <= (
            tol * np.abs(green_one).max())


@pytest.mark.parametrize("shift", [0.0, 1.3, 4.0])
@pytest.mark.parametrize("x_a", [ATOM_INSIDE, ATOM_OUTSIDE])
@pytest.mark.parametrize("case", ["1", "2", "vacuum"])
def test_grid_oracle_matches_scalar_calls_on_stock_media(case, x_a, shift):
    grid = np.linspace(300.0 + shift, 700.0, 101)
    assert_grid_oracle_matches_scalar(CASE_PRESETS[case], grid, x_a)


@st.composite
def media(draw):
    """A vacuum slab, a lossy slab, or a thick lossless one driven just
    above its resonance, where k_s is nearly imaginary and P = e^{i k_s L}
    underflows."""
    kind = draw(st.sampled_from(["vacuum", "lossy", "opaque"]))
    a = draw(st.floats(0.005, 0.04))
    if kind == "vacuum":
        return MediumSpec(0.0, 500.0, 50.0, a)
    if kind == "lossy":
        return MediumSpec(draw(st.floats(10.0, 300.0)),
                          draw(st.floats(300.0, 700.0)),
                          draw(st.floats(0.5, 100.0)), a)
    return MediumSpec(draw(st.floats(250.0, 400.0)),
                      draw(st.floats(380.0, 450.0)), 0.0,
                      draw(st.floats(0.09, 0.2)))


@settings(deadline=None, max_examples=40)
@given(medium=media(), lo=st.floats(300.0, 450.0),
       span=st.floats(1.0, 250.0), count=st.integers(1, 40),
       x_a=st.sampled_from([ATOM_INSIDE, ATOM_OUTSIDE]))
# a lossless slab just below its resonance, where the probe field cancels:
# while one frequency was worked in Python's scalar arithmetic, its probe
# field missed the grid's by 47 eps of the peak here
@example(medium=MediumSpec(250.0, 384.828125, 0.0, 0.125), lo=360.5625,
         span=57.625, count=39, x_a=ATOM_INSIDE)
def test_grid_oracle_matches_scalar_calls_on_drawn_media(medium, lo, span,
                                                         count, x_a):
    grid = np.linspace(lo, lo + span, count)
    assume(not any(medium.pole_at(w) for w in grid.tolist()))
    assert_grid_oracle_matches_scalar(medium, grid, x_a)


def test_an_opaque_slab_underflows_the_propagator():
    # the drawn opaque media reach the regime they are drawn for
    medium = MediumSpec(264.0, 410.0, 0.0, 0.09375)
    grid = np.linspace(411.0, 413.0, 3)
    ks = grid * np.sqrt(1.0 + medium.susceptibility(grid))
    assert np.all(np.exp(2j * ks * medium.slab_length) == 0.0)
    assert_grid_oracle_matches_scalar(medium, grid, ATOM_OUTSIDE)


def test_a_scalar_frequency_reads_scalars():
    medium, omega = CASE_PRESETS["1"], 500.0
    _, t = tmm_reflection_transmission(medium, omega)
    assert isinstance(t, complex)
    assert isinstance(tmm_total_field(medium, omega, +1, 0.0), complex)
    assert isinstance(tmm_green(medium, omega, 0.01, 0.0), complex)
    assert tmm_green(medium, omega, PROBES, 0.0).shape == (2,)
    grid = np.array([[400.0, 500.0]])
    assert tmm_green(medium, grid, np.zeros((3, 4)), 0.0).shape == (1, 2, 3, 4)


@pytest.mark.parametrize("ppw", [40.0, 160.0])
@pytest.mark.parametrize("case", ["1A", "1B", "2A", "2B", "vacuum"])
def test_fem_readouts_are_the_per_point_readouts(case, ppw):
    config = build_config(f"case = {case}\n")
    medium, x_a = config.medium, config.atom_position
    mesh = purcell_mesh(medium, x_a, k_max=700.0, ppw=ppw)
    grid = config.grid()
    readouts = fem_readouts(mesh, medium, grid, x_a)
    for i, omega in enumerate(grid.tolist()):
        reference = per_frequency_readouts(mesh, medium, omega, x_a)
        for ours, theirs in zip(readouts, reference):
            np.testing.assert_array_equal(bitwise(ours[i]), bitwise(theirs))
    # and in the physical region the per-point readouts are np.interp of
    # the nodal values (past a port, where the A cases' meshes leave x_B,
    # the probe is read in closed form, as the test below checks)
    omega = grid[-1]
    _, _, field, green = per_frequency_readouts(mesh, medium, omega, x_a)
    total = solve_scattering(mesh, medium, omega, +1).total_at_nodes(
        slice(None))
    lo, hi = mesh.physical_region
    inside = (PROBES >= lo) & (PROBES <= hi)
    assert inside.sum() == (1 if x_a == ATOM_INSIDE else 2)
    np.testing.assert_array_equal(bitwise(field[inside]), bitwise(
        interpolate_p1(mesh.nodes, total, PROBES[inside])))
    g = solve_point_source(mesh, medium, omega, x_a).dofs
    np.testing.assert_array_equal(bitwise(green), bitwise(
        interpolate_p1(mesh.nodes, g, green_samples(medium))))


def test_a_one_point_grid_reads_as_the_reference(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("case = 2A\nsweep.count = 1\n")
    config = build_config(cfg.read_text())
    medium, x_a = config.medium, config.atom_position
    mesh = purcell_mesh(medium, x_a, k_max=300.0, ppw=config.oracle_ppw)
    grid = config.grid()
    assert grid.shape == (1,)
    for ours, theirs in zip(fem_readouts(mesh, medium, grid, x_a),
                            per_frequency_readouts(mesh, medium, 300.0, x_a)):
        np.testing.assert_array_equal(bitwise(ours[0]), bitwise(theirs))
    out = tmp_path / "oc.csv"
    assert main(["oracle-compare", "--config", str(cfg),
                 "--out", str(out)]) == 0
    rows = [line for line in out.read_text().splitlines()
            if line and not line.startswith("#")][1:]
    residuals = oracle_residuals(mesh, medium, grid, x_a)
    assert rows == [",".join(map(_fmt, [300.0, *residuals[0].tolist()]))]


def test_residuals_match_the_per_frequency_reference():
    # the FEM side is bitwise the reference's; the oracle's round-off
    # moves a residual by at most its miss's share of it
    medium = CASE_PRESETS["1"]
    mesh = purcell_mesh(medium, ATOM_OUTSIDE, k_max=700.0, ppw=40.0)
    grid = np.linspace(300.0, 700.0, 21)
    residuals = oracle_residuals(mesh, medium, grid, ATOM_OUTSIDE)
    reference = [per_frequency_oracle_residuals(mesh, medium, w,
                                                ATOM_OUTSIDE)
                 for w in grid.tolist()]
    np.testing.assert_allclose(residuals, reference, rtol=1e-10)


def test_residuals_are_small_on_a_resolved_mesh():
    medium = CASE_PRESETS["2"]
    mesh = purcell_mesh(medium, ATOM_INSIDE, k_max=700.0, ppw=160.0)
    residuals = oracle_residuals(mesh, medium, [500.0], ATOM_INSIDE)
    assert residuals.shape == (1, 3)
    assert all(0.0 < r < 5e-3 for r in residuals[0])


@settings(deadline=None, max_examples=25)
@given(medium=media(), lo=st.floats(300.0, 450.0),
       span=st.floats(1.0, 250.0), count=st.integers(1, 12),
       ppw=st.sampled_from([10.0, 40.0]))
def test_a_probe_past_a_port_is_total_at_at_every_frequency(medium, lo, span,
                                                           count, ppw):
    # a mesh cut to the slab and the atom at its center, as the A cases'
    # are, leaves x_B past its right port unless the slab holds it; there
    # the grid's probe field is the per-point closed form of ``total_at``
    # (the outgoing scattered wave plus the incident lattice wave, carried
    # from the port), bitwise, at every frequency
    grid = np.linspace(lo, lo + span, count)
    assume(not any(medium.pole_at(w) for w in grid.tolist()))
    mesh = build_mesh(medium, float(grid[-1]), ppw, 0.1,
                      observation_points=[ATOM_INSIDE, ATOM_OUTSIDE],
                      hull_points=[ATOM_INSIDE])
    a = medium.slab_half_length
    assert (mesh.physical_region[1] < ATOM_OUTSIDE) == (a < ATOM_OUTSIDE)
    _, _, field, _ = fem_readouts(mesh, medium, grid, ATOM_INSIDE)
    for i, omega in enumerate(grid.tolist()):
        solution = solve_scattering(mesh, medium, omega, +1)
        np.testing.assert_array_equal(bitwise(field[i]),
                                      bitwise(solution.total_at(PROBES)))


def test_oracle_compare_rows_are_the_residuals(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("case = 1B\nsweep.count = 2\noracle.ppw = 40\n")
    out = tmp_path / "oc.csv"
    main(["oracle-compare", "--config", str(cfg), "--out", str(out)])
    rows = [line for line in out.read_text().splitlines()
            if line and not line.startswith("#")][1:]
    medium = CASE_PRESETS["1"]
    x_a = ATOM_OUTSIDE  # case 1B
    mesh = purcell_mesh(medium, x_a, k_max=700.0, ppw=40.0)
    grid = [300.0, 700.0]
    expected = oracle_residuals(mesh, medium, grid, x_a)
    assert rows == [",".join(map(_fmt, [omega, *row]))
                    for omega, row in zip(grid, expected.tolist())]
