"""Purcell-factor methods: vacuum anchors, regime structure, exact identities."""

import dataclasses
import warnings

import numpy as np
import pytest
from _dense_reference import (
    gamma_boundary,
    gamma_medium,
    per_frequency_sweep,
)
from _random_meshes import open_meshes
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slabqed import fem, purcell
from slabqed.cli import main
from slabqed.greens import sample_green, solve_point_source
from slabqed.identities import check_thermal_equilibrium
from slabqed.medium import MediumSpec, case_preset
from slabqed.mesh import Mesh1D
from slabqed.oracle import tmm_total_field
from slabqed.scattering import solve_scattering


def make_setup(label, ppw=40.0):
    medium, x_a = case_preset(label)
    mesh = purcell.purcell_mesh(medium, x_a, ppw=ppw)
    return mesh, medium, x_a


@pytest.mark.parametrize("omega", [300.0, 500.0, 700.0])
def test_vacuum_baseline(omega):
    mesh, medium, x_a = make_setup("vacuum", ppw=80.0)
    rec = purcell.compute_record(mesh, medium, omega, x_a)
    # LDOS route carries the only discretization bias; the plane-wave route
    # is exact up to solver roundoff and the medium route is identically 0.
    np.testing.assert_allclose(rec.pf_sfa, 1.0, atol=1e-3)
    np.testing.assert_allclose(rec.pf_b, 1.0, atol=1e-9)
    assert rec.pf_m == 0.0
    assert rec.pf_original_ln == 0.0
    assert rec.pf_modified_ln == rec.pf_b


@pytest.mark.parametrize("label", ["1A", "1B", "2A", "2B", "vacuum"])
def test_tec_residual_is_the_thermal_balance_check(label):
    # the sweep's tec_residual and the identity check measure one balance
    # from the same lattice scattering states, scaled differently: on the
    # stock grid at ppw 40 they agreed to 8.9e-9 relative at worst (2A,
    # omega 496). Where pf_b sits at round-off (the opaque 2A rows) both
    # are ratios of round-off, so those rows are left out
    mesh, medium, x_a = make_setup(label)
    for rec in purcell.sweep(mesh, medium, purcell.sweep_grid(), x_a):
        if rec.pf_b < 1e-6 * rec.pf_sfa:
            continue
        check = check_thermal_equilibrium(mesh, medium, rec.omega_a, x_a,
                                          x_a)
        assert rec.tec_residual == pytest.approx(check, rel=1e-7)


@pytest.mark.parametrize("label", ["1A", "1B", "2A", "2B"])
def test_split_and_alias_are_bitwise(label):
    mesh, medium, x_a = make_setup(label)
    rec = purcell.compute_record(mesh, medium, 507.3, x_a)
    assert rec.pf_modified_ln == rec.pf_b + rec.pf_m
    assert rec.pf_original_ln == rec.pf_m


def test_regimes_inside_opaque_slab():
    """At resonance the slab absorbs the incoming waves before they reach
    the centered atom, so the medium part carries nearly the whole rate."""
    mesh, medium, x_a = make_setup("1A")
    rec = purcell.compute_record(mesh, medium, 500.0, x_a)
    assert rec.pf_b / rec.pf_modified_ln < 0.1
    assert rec.pf_m / rec.pf_modified_ln > 0.9
    assert abs(rec.pf_original_ln - rec.pf_sfa) / rec.pf_sfa < 0.1


def test_medium_only_route_fails_outside_slab():
    mesh, medium, x_a = make_setup("1B")
    rec = purcell.compute_record(mesh, medium, 500.0, x_a)
    gap_original = abs(rec.pf_original_ln - rec.pf_sfa)
    gap_modified = abs(rec.pf_modified_ln - rec.pf_sfa)
    assert gap_original > gap_modified


@pytest.mark.parametrize("label", ["1A", "1B", "2A", "2B"])
@pytest.mark.parametrize("omega", [300.0, 500.0, 700.0])
def test_methods_agree_when_resolved(label, omega):
    """Split route vs LDOS route on a mesh fine enough that lattice
    dispersion is negligible (the gap scales as h^2)."""
    mesh, medium, x_a = make_setup(label, ppw=160.0)
    rec = purcell.compute_record(mesh, medium, omega, x_a)
    assert abs(rec.pf_modified_ln - rec.pf_sfa) / rec.pf_sfa < 5e-3
    if rec.pf_b > 1e-6 * rec.pf_sfa:
        # the balance residual is a ratio of the two flux channels and
        # degenerates to 0/0 when the opaque slab starves the atom of the
        # incoming waves (deep inside, at resonance)
        assert rec.tec_residual < 5e-3


def test_boundary_rate_matches_oracle_fields():
    mesh, medium, x_a = make_setup("1B", ppw=160.0)
    sol_p = solve_scattering(mesh, medium, 500.0, +1)
    sol_m = solve_scattering(mesh, medium, 500.0, -1)
    got = gamma_boundary(sol_p, sol_m, x_a)
    ref = 0.5 * sum(
        abs(tmm_total_field(medium, 500.0, d, x_a)) ** 2 for d in (+1, -1)
    )
    np.testing.assert_allclose(got, ref, rtol=1e-2)


def test_opaque_slab_starves_the_boundary_rate():
    """Deep inside the opaque slab at resonance the incoming waves are
    absorbed before reaching the atom; the oracle gives ~5e-18. Incident
    and scattered parts on one lattice dispersion cancel to round-off (the
    analytic incident wave left 1.1e-6 here)."""
    mesh, medium, x_a = make_setup("2A")
    rec = purcell.compute_record(mesh, medium, 500.0, x_a)
    assert rec.pf_b < 1e-12


@pytest.mark.parametrize("label", ["1B", "2B"])
def test_boundary_rate_tracks_oracle_at_pinned_resolution(label):
    """pf_b against the oracle's 0.5 sum |Phi_+-(x_a)|^2 over the whole
    101-point band at ppw = 40 (the analytic incident wave missed by up to
    3.36e-2 for 1B and 3.56e-2 for 2B)."""
    mesh, medium, x_a = make_setup(label)
    worst = 0.0
    for rec in purcell.sweep(mesh, medium, purcell.sweep_grid(), x_a):
        ref = 0.5 * sum(
            abs(complex(tmm_total_field(medium, rec.omega_a, d, x_a))) ** 2
            for d in (+1, -1)
        )
        worst = max(worst, abs(rec.pf_b - ref) / ref)
    assert worst < 3e-2


def test_gamma_boundary_rejects_same_direction():
    mesh, medium, x_a = make_setup("1A")
    sol_p = solve_scattering(mesh, medium, 500.0, +1)
    with pytest.raises(ValueError, match="direction"):
        gamma_boundary(sol_p, sol_p, x_a)


def test_medium_rate_quadrature_is_converged():
    # the band form g^H M_slab g is the slab integral of |G_h|^2 itself:
    # an independent 8-point Gauss sum of the interpolated G agrees to
    # round-off, and compute_record reports that rate
    nodes, weights = np.polynomial.legendre.leggauss(8)
    for label in ("1A", "1B", "2A", "2B"):
        mesh, medium, x_a = make_setup(label)
        for k in (300.0, 500.0, 700.0):
            idx = mesh.slab_elements
            half = 0.5 * mesh.element_lengths[idx][:, None]
            xq = mesh.element_midpoints[idx, None] + half * nodes
            field = solve_point_source(mesh, medium, k, x_a)
            gauss8 = float(np.sum(half * weights * np.abs(field(xq)) ** 2))
            chi_imag = complex(medium.susceptibility(k)).imag
            pf8 = 2.0 * k**3 * chi_imag * gauss8
            samples = sample_green(mesh, medium, k, x_a)
            pf_m = gamma_medium(samples)
            assert abs(pf_m - pf8) <= 1e-13 * pf8
            assert purcell.compute_record(mesh, medium, k, x_a).pf_m == pf_m


def test_sweep_is_sorted_positive_and_deterministic():
    mesh, medium, x_a = make_setup("1B")
    grid = [520.0, 410.0, 660.0, 330.0]
    records = purcell.sweep(mesh, medium, grid, x_a)
    assert [r.omega_a for r in records] == sorted(grid)
    assert purcell.sweep(mesh, medium, grid, x_a) == records
    for rec in records:
        assert rec.pf_sfa > 0 and rec.pf_b > 0 and rec.pf_m >= 0


def test_sweep_attaches_frequency_to_errors():
    mesh, medium, _ = make_setup("1A")
    with pytest.raises(ValueError, match="omega_a = 300"):
        purcell.sweep(mesh, medium, [300.0], x_a=0.0123456)


def test_sweep_empty_grid():
    mesh, medium, x_a = make_setup("1A")
    assert purcell.sweep(mesh, medium, [], x_a) == []


def test_sweep_grid_shape_and_validation():
    grid = purcell.sweep_grid()
    assert grid[0] == 300.0 and grid[-1] == 700.0 and grid.size == 101
    with pytest.raises(ValueError):
        purcell.sweep_grid(700.0, 300.0)


def test_mesh_places_both_atom_sites_on_nodes():
    mesh, medium, _ = make_setup("2A")
    assert mesh.find_node(0.0) >= 0
    assert mesh.find_node(0.0625) >= 0


# ``sweep --case 1B``: 101 frequencies at ppw 40. Per frequency, one chi(k),
# one kt per length class and one LU; the three routes still make three
# separate single-column solves. Before the hoisting the sweep evaluated
# chi 404 times, kt 202 times and bisected for the atom's node 303 times.
STOCK_1B_POINTS = 101


def test_stock_1b_sweep_count_work_budget(monkeypatch, tmp_path):
    # counted, not timed: calls of each k-dependent helper, LUs built and
    # right-hand-side columns solved
    work = dict.fromkeys(("chi", "kt", "find_node", "lu", "solves",
                          "columns"), 0)

    def count(owner, name, key, columns=None):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            work[key] += 1
            if columns is not None:
                block = args[columns]
                work["columns"] += block.shape[1] if block.ndim == 2 else 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(MediumSpec, "susceptibility", "chi")
    count(fem, "lattice_wavenumber", "kt")
    count(Mesh1D, "find_node", "find_node")
    count(fem.Factorization, "__init__", "lu")
    count(fem.Factorization, "solve", "solves", columns=1)
    assert main(["sweep", "--case", "1B",
                 "--out", str(tmp_path / "o.csv")]) == 0
    assert work["chi"] <= STOCK_1B_POINTS
    assert work["kt"] <= STOCK_1B_POINTS
    assert work["find_node"] <= 2
    assert work["lu"] == STOCK_1B_POINTS
    assert work["solves"] == work["columns"] == 3 * STOCK_1B_POINTS


# ---------------------------------------------------------- block sweep


def bits(records):
    """Every field of every record, as the bytes of its double."""
    return [tuple(np.float64(v).tobytes() for v in dataclasses.astuple(r))
            for r in records]


def assert_block_sweep_is_per_frequency(mesh, medium, omegas, x_a):
    records = purcell.sweep(mesh, medium, omegas, x_a)
    assert bits(records) == bits(per_frequency_sweep(mesh, medium, omegas,
                                                     x_a))
    return records


@pytest.mark.parametrize("ppw", [40.0, 160.0])
@pytest.mark.parametrize("label", ["1A", "1B", "2A", "2B", "vacuum"])
def test_block_sweep_is_bitwise_the_per_frequency_sweep(label, ppw):
    # blocks of 7 frequencies on the 423-node ppw-40 mesh, one at a time on
    # the 1,677-node ppw-160 one: the same bits either way
    mesh, medium, x_a = make_setup(label, ppw=ppw)
    assert fem.block_size(mesh) == {40.0: 7, 160.0: 1}[ppw]
    assert_block_sweep_is_per_frequency(mesh, medium, purcell.sweep_grid(),
                                        x_a)


def block_grids():
    """Grids around the ppw-40 block size of 7: one point, a block less
    one, a block, a block plus one and two blocks plus one, unsorted."""
    rng = np.random.default_rng(30)
    return [[512.5]] + [rng.uniform(300.0, 700.0, n).tolist()
                        for n in (6, 7, 8, 15)]


@pytest.mark.parametrize("grid", block_grids(), ids=len)
def test_block_sweep_is_bitwise_on_any_grid(grid):
    mesh, medium, x_a = make_setup("2B")
    records = assert_block_sweep_is_per_frequency(mesh, medium, grid, x_a)
    assert [r.omega_a for r in records] == sorted(grid)


def test_a_sweep_assembles_once_per_block(monkeypatch):
    mesh, medium, x_a = make_setup("1A")
    assembled = []
    assemble = fem.assemble

    def counting(mesh, medium, k):
        assembled.append(np.size(k))
        return assemble(mesh, medium, k)

    # the sweep's own name and fem's, which an LU assembled alone calls
    monkeypatch.setattr(purcell, "assemble", counting)
    monkeypatch.setattr(fem, "assemble", counting)
    purcell.sweep(mesh, medium, purcell.sweep_grid(), x_a)
    assert assembled == [7] * 14 + [3]
    # the block's rows went to its LUs; the mesh keeps no block after it
    assert set(fem._KEPT[mesh]) == {"static_bands", "node", "factorization"}


def test_a_pole_in_a_block_is_refused_at_its_frequency():
    # a lossless slab has no permittivity at omega_0 = 500: the block that
    # holds it cannot be assembled, so its frequencies are solved one at a
    # time up to 500, which is refused by itself, before chi is evaluated
    mesh, medium, x_a = make_setup("1A")
    lossless = dataclasses.replace(medium, gamma=0.0)
    grid = [496.0, 497.0, 498.0, 499.0, 500.0, 501.0, 502.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as refused:
            purcell.sweep(mesh, lossless, grid, x_a)
    assert str(refused.value).startswith(
        "sweep point omega_a = 500.0: chi(k) is not finite at k = 500.0")
    before = per_frequency_sweep(mesh, lossless, grid[:4], x_a)
    assert bits(purcell.sweep(mesh, lossless, grid[:4], x_a)) == bits(before)


@settings(deadline=None, max_examples=25)
@given(drawn=open_meshes(), omega_p=st.floats(0.0, 2000.0),
       gamma=st.sampled_from([0.0, 5.0, 50.0]),
       grid=st.lists(st.floats(50.0, 1500.0), min_size=1, max_size=20),
       pick=st.floats(0.0, 1.0))
def test_block_sweep_is_bitwise_on_any_medium_and_grid(drawn, omega_p, gamma,
                                                       grid, pick):
    mesh, medium, _, _ = drawn
    medium = dataclasses.replace(medium, omega_p=omega_p, gamma=gamma)
    assume(not any(medium.pole_at(omega) for omega in grid))
    nodes = mesh.nodes[1:-1]
    x_a = float(nodes[round(pick * (nodes.size - 1))])
    assert_block_sweep_is_per_frequency(mesh, medium, grid, x_a)
