"""Operator-identity checks: exactness, expected failure, balance."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from _dense_reference import dense_tridiagonal
from _random_meshes import meshes
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from slabqed import identities as ids
from slabqed.fem import DEFAULT_DOF_CAP, assemble
from slabqed.medium import CASE_PRESETS
from slabqed.mesh import build_box_mesh, build_mesh


def open_mesh(medium, ppw=15.0):
    return build_mesh(medium, 700.0, ppw, 0.05,
                      observation_points=(0.0, 0.0625))


@pytest.mark.parametrize("name", ["vacuum", "1", "2"])
@pytest.mark.parametrize("k", [300.0, 500.0, 700.0])
def test_two_channel_decomposition_is_exact(name, k):
    medium = CASE_PRESETS[name]
    system = assemble(open_mesh(medium), medium, k)
    assert ids.check_discrete_ddgt(system) < 1e-12


def test_two_channel_decomposition_closed_box_degenerates():
    medium = CASE_PRESETS["vacuum"]
    box = build_box_mesh(medium, 700.0, 15.0, 0.625)
    system = assemble(box, medium, 500.0)
    assert ids.check_discrete_ddgt(system) == 0.0
    assert ids.check_lossless_identity_failure(
        system, window=(-0.3, 0.3)) == 0.0


def green_through_the_blocks(system, monkeypatch):
    """G put together from the column blocks the checks solve for.

    The medium-only check sandwiches once per block, and each sandwich
    reads conj(G[:, J]) of its block.
    """
    blocks = []
    sandwich = ids._sandwich

    def keep_block(lu, bands, conj_green, out, work):
        blocks.append(np.conj(conj_green))
        return sandwich(lu, bands, conj_green, out, work)

    monkeypatch.setattr(ids, "_sandwich", keep_block)
    ids.check_lossless_identity_failure(system)
    return np.hstack(blocks)


def test_green_from_the_lu_matches_a_dense_inverse(monkeypatch):
    medium = CASE_PRESETS["1"]
    system = assemble(open_mesh(medium), medium, 500.0)
    diag, off = system.l_diag, system.l_off
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    reference = np.linalg.solve(dense, np.eye(system.n_interior))
    green = green_through_the_blocks(system, monkeypatch)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(green - reference)) <= 1e-12 * scale


@pytest.mark.parametrize("window", [None, (0.0, 0.0), (0.0625, 0.0625),
                                    (-0.015, 0.015), (0.02, 0.07)])
def test_medium_only_residual_matches_a_dense_reference(window):
    # max|Im G - k^2 G Im(M) G~| / max|Im G| over the window x window, from
    # a dense inverse; a one-node window reads one entry of each
    medium = CASE_PRESETS["1"]
    system = assemble(open_mesh(medium), medium, 500.0)
    diag, off = system.l_diag, system.l_off
    green = np.linalg.inv(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    m_diag, m_off = system.m_diag[1:-1], system.m_off[1:-1]
    im_m = np.diag(m_diag.imag) + np.diag(m_off.imag, 1) + np.diag(
        m_off.imag, -1)
    residual = green.imag - system.k**2 * green @ im_m @ np.conj(green)
    lo, hi = window or system.mesh.physical_region
    x = system.mesh.nodes[1:-1]
    inside = np.ix_((x >= lo) & (x <= hi), (x >= lo) & (x <= hi))
    reference = (np.abs(residual[inside]).max()
                 / np.abs(green.imag[inside]).max())
    for got in (ids.check_lossless_identity_failure(system, window),
                ids.check_identities(system, window)[1]):
        assert got == pytest.approx(reference, rel=1e-10)


@pytest.mark.parametrize("check", [ids.check_discrete_ddgt,
                                   ids.check_lossless_identity_failure])
def test_checks_hold_column_blocks_not_the_dense_green(check):
    # a dense (n, n) complex G alone is n^2 16 B, four times this bound;
    # ppw 84 gives n = 880, about the size the bound was set at
    medium = CASE_PRESETS["1"]
    system = assemble(open_mesh(medium, ppw=84.0), medium, 500.0)
    n = system.n_interior
    tracemalloc.start()
    try:
        check(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n * 16 / 4


@pytest.mark.parametrize("name", ["vacuum", "1", "2"])
def test_block_width_leaves_both_checks_bitwise(name, monkeypatch):
    # every step is column-local and a max-norm is exact, so the width of
    # the column blocks cannot move a report by a bit
    medium = CASE_PRESETS[name]
    system = assemble(open_mesh(medium), medium, 430.0)

    def reports():
        deep = (-0.015, 0.015)
        return (ids.check_discrete_ddgt(system),
                ids.check_lossless_identity_failure(system),
                ids.check_lossless_identity_failure(system, window=deep),
                ids.check_identities(system),
                ids.check_identities(system, window=deep))

    stock = reports()
    for width in (1, 7, system.n_interior, system.n_interior + 5):
        monkeypatch.setattr(ids, "_BLOCK", width)
        assert reports() == stock


def _pinned_vacuum_mesh():
    # a draw at the strategy's edge k = 50, cond(L) 8.5e4, where the port
    # columns of the LU and of a dense inverse differ by 1.7e-12 of max|Im G|
    vacuum = dataclasses.replace(CASE_PRESETS["vacuum"],
                                 slab_half_length=0.01)
    return build_mesh(vacuum, 700.0, 68.0, 0.01), vacuum


@settings(deadline=None, max_examples=15)
@given(drawn=meshes(), k=st.floats(50.0, 1500.0))
@example(drawn=_pinned_vacuum_mesh(), k=50.0)
def test_radiation_channel_is_the_dense_sandwich(drawn, k):
    # G Im S G~ from the port columns against dense matrices, on open
    # meshes (two ports) and closed boxes (none). The rank-two formula is
    # evaluated on one dense G, since two factorizations of L differ by
    # about cond(L) eps; the LU's port columns are checked by their
    # backward error, which does not grow with cond(L)
    mesh, medium = drawn
    assume(mesh.n_interior <= 500)
    system = assemble(mesh, medium, k)
    operator = dense_tridiagonal(system.l_diag, system.l_off)
    green = np.linalg.inv(operator)
    s_diag, s_off = system.stiffness_interior()
    dense = green @ dense_tridiagonal(s_diag.imag, s_off.imag) @ np.conj(green)
    ports, weights, columns = ids._radiation_ports(ids.Factorization(system),
                                                   system)
    assert ports.size == (2 if mesh.is_open else 0)
    rank_two = green[:, ports] @ (weights * np.conj(green)[ports])
    assert np.max(np.abs(rank_two - dense)) <= 1e-12 * max(
        np.max(np.abs(green.imag)), 1e-300)
    # normwise backward error |L x - e_p| / (|L| |x| + |e_p|), max-norms
    units = np.eye(system.n_interior)[:, ports]
    backward = np.abs(operator @ columns - units).max(axis=0) / (
        np.abs(operator).sum(axis=1).max() * np.abs(columns).max(axis=0)
        + 1.0)
    assert np.all(backward <= 1e-14)
    assert ids.check_discrete_ddgt(system) < 1e-12


def test_radiation_channel_refuses_an_off_diagonal_im_s():
    medium = CASE_PRESETS["1"]
    system = assemble(open_mesh(medium), medium, 500.0)
    leaky = dataclasses.replace(system, s_off=system.s_off + 1e-3j)
    for check in (ids.check_discrete_ddgt, ids.check_identities):
        with pytest.raises(ValueError, match="off-diagonal"):
            check(leaky)


@pytest.mark.parametrize("name", ["vacuum", "1"])
def test_medium_part_is_solved_only_where_im_m_is_nonzero(name, monkeypatch):
    # vacuum has Im M = 0 exactly: no medium block is solved, and the
    # medium-only residual is Im G itself, exactly 1
    medium = CASE_PRESETS[name]
    system = assemble(open_mesh(medium), medium, 500.0)
    sandwiches = []
    sandwich = ids._sandwich

    def counting(*args):
        sandwiches.append(args[1])
        return sandwich(*args)

    monkeypatch.setattr(ids, "_sandwich", counting)
    both = ids.check_identities(system)
    assert bool(sandwiches) == (name != "vacuum")
    if name == "vacuum":
        assert both[1] == 1.0


@pytest.fixture
def built_lus(monkeypatch):
    """The system of every Factorization the checks build."""
    systems = []
    init = ids.Factorization.__init__

    def counting(self, system):
        systems.append(system)
        init(self, system)

    monkeypatch.setattr(ids.Factorization, "__init__", counting)
    return systems


@pytest.mark.parametrize("name", ["vacuum", "1", "2"])
@pytest.mark.parametrize("window", [None, (-0.015, 0.015), (0.02, 0.07)])
def test_one_walk_gives_both_checks_bitwise(name, window, built_lus):
    # check_identities reads both residuals from one LU and one walk of G
    medium = CASE_PRESETS[name]
    system = assemble(open_mesh(medium), medium, 430.0)
    both = ids.check_identities(system, window)
    assert len(built_lus) == 1
    assert both == (ids.check_discrete_ddgt(system),
                    ids.check_lossless_identity_failure(system, window))


def test_dense_dof_cap_guard():
    # the guard fires before any dense allocation
    medium = CASE_PRESETS["vacuum"]
    system = assemble(open_mesh(medium, ppw=440.0), medium, 500.0)
    assert system.n_interior > DEFAULT_DOF_CAP
    for check in (ids.check_discrete_ddgt, ids.check_lossless_identity_failure,
                  ids.check_identities):
        with pytest.raises(ValueError, match="cap"):
            check(system)


def test_medium_only_identity_fails_under_radiation_loss():
    """Dropping the radiation channel must misattribute the whole vacuum
    LDOS, and the violation cannot be hidden by refinement."""
    medium = CASE_PRESETS["vacuum"]
    for ppw in (15.0, 30.0):
        system = assemble(open_mesh(medium, ppw), medium, 500.0)
        assert ids.check_lossless_identity_failure(system) > 0.5


@settings(deadline=None, max_examples=15)
@given(drawn=meshes(), k=st.floats(50.0, 1500.0))
def test_vacuum_medium_only_failure_is_exactly_one(drawn, k):
    # vacuum has Im M = 0, so the medium-only residual is Im G itself, and
    # all of Im G is radiation through the boundary's Im S on two nodes
    mesh, _ = drawn
    assume(mesh.is_open)
    vacuum = dataclasses.replace(CASE_PRESETS["vacuum"],
                                 slab_half_length=mesh.slab_half_length)
    system = assemble(mesh, vacuum, k)
    assert ids.check_lossless_identity_failure(system) == 1.0
    assert ids.check_identities(system)[1] == 1.0
    assert np.flatnonzero(system.s_diag.imag).tolist() == [
        1, mesh.n_nodes - 2]


def test_medium_only_identity_recovers_deep_inside_lossy_slab():
    """At the absorption peak the slab soaks up the radiation channel, so
    the medium term alone nearly reproduces Im G between buried points."""
    medium = CASE_PRESETS["1"]
    system = assemble(open_mesh(medium), medium, 500.0)
    deep = ids.check_lossless_identity_failure(system, window=(-0.015, 0.015))
    everywhere = ids.check_lossless_identity_failure(system)
    assert deep < 0.05
    assert everywhere > 0.2


def test_lossless_check_rejects_empty_window():
    medium = CASE_PRESETS["vacuum"]
    system = assemble(open_mesh(medium), medium, 500.0)
    with pytest.raises(ValueError, match="window"):
        ids.check_lossless_identity_failure(system, window=(9.0, 10.0))


def test_balance_vacuum_self_point():
    medium = CASE_PRESETS["vacuum"]
    mesh = build_mesh(medium, 700.0, 80.0, 0.05,
                      observation_points=(0.0, 0.0625))
    assert ids.check_thermal_equilibrium(mesh, medium, 500.0, 0.0, 0.0) < 1e-3


@pytest.mark.parametrize("name", ["1", "2"])
@pytest.mark.parametrize("k", [300.0, 500.0, 700.0])
def test_balance_outside_slab(name, k):
    medium = CASE_PRESETS[name]
    mesh = build_mesh(medium, 700.0, 160.0, 0.05,
                      observation_points=(0.0, 0.0625))
    r = ids.check_thermal_equilibrium(mesh, medium, k, 0.0625, 0.0625)
    assert r < 5e-3


def test_balance_at_distinct_points():
    medium = CASE_PRESETS["1"]
    mesh = build_mesh(medium, 700.0, 160.0, 0.05,
                      observation_points=(0.0, 0.0625))
    r = ids.check_thermal_equilibrium(mesh, medium, 410.0, 0.0, 0.0625)
    assert r < 5e-3


def test_balance_rejects_absorbing_layer_points():
    # the wall nodes stand in for the outgoing field and are not read
    medium = CASE_PRESETS["1"]
    mesh = open_mesh(medium)
    for x in (0.1, mesh.nodes[-1], mesh.nodes[0]):
        with pytest.raises(ValueError, match="physical region"):
            ids.check_thermal_equilibrium(mesh, medium, 500.0, x, 0.0)
