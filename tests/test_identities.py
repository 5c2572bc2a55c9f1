"""Operator-identity checks: exactness, expected failure, balance."""

import tracemalloc

import numpy as np
import pytest

from slabqed import identities as ids
from slabqed.fem import DEFAULT_DOF_CAP, assemble
from slabqed.medium import CASE_PRESETS
from slabqed.mesh import PmlSpec, build_box_mesh, build_mesh

PML = PmlSpec(thickness=0.05)


def open_mesh(medium, ppw=15.0):
    return build_mesh(medium, 700.0, ppw, 0.05, PML,
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


def green_through_the_blocks(system):
    """G put together from the column blocks the checks solve for."""
    blocks = []

    def keep_block(lu, green, *spare):
        blocks.append(green.copy())
        return green

    ids._relative_residual(system, slice(None), keep_block)
    return np.hstack(blocks)


def test_green_from_the_lu_matches_a_dense_inverse():
    medium = CASE_PRESETS["1"]
    system = assemble(open_mesh(medium), medium, 500.0)
    diag, off = system.operator_interior()
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    reference = np.linalg.solve(dense, np.eye(system.n_interior))
    green = green_through_the_blocks(system)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(green - reference)) <= 1e-12 * scale


@pytest.mark.parametrize("check", [ids.check_discrete_ddgt,
                                   ids.check_lossless_identity_failure])
def test_checks_hold_column_blocks_not_the_dense_green(check):
    # a dense (n, n) complex G alone is n^2 16 B, four times this bound
    medium = CASE_PRESETS["1"]
    system = assemble(open_mesh(medium, ppw=30.0), medium, 500.0)
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
        return (ids.check_discrete_ddgt(system),
                ids.check_lossless_identity_failure(system),
                ids.check_lossless_identity_failure(
                    system, window=(-0.015, 0.015)))

    stock = reports()
    for width in (1, 7, system.n_interior, system.n_interior + 5):
        monkeypatch.setattr(ids, "_BLOCK", width)
        assert reports() == stock


def test_dense_dof_cap_guard():
    # the guard fires before any dense allocation
    medium = CASE_PRESETS["vacuum"]
    system = assemble(open_mesh(medium, ppw=150.0), medium, 500.0)
    assert system.n_interior > DEFAULT_DOF_CAP
    for check in (ids.check_discrete_ddgt, ids.check_lossless_identity_failure):
        with pytest.raises(ValueError, match="cap"):
            check(system)


def test_medium_only_identity_fails_under_radiation_loss():
    """Dropping the radiation channel must misattribute about half the
    vacuum LDOS, and the violation cannot be hidden by refinement."""
    medium = CASE_PRESETS["vacuum"]
    for ppw in (15.0, 30.0):
        system = assemble(open_mesh(medium, ppw), medium, 500.0)
        assert ids.check_lossless_identity_failure(system) > 0.5


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
    mesh = build_mesh(medium, 700.0, 80.0, 0.05, PML,
                      observation_points=(0.0, 0.0625))
    assert ids.check_thermal_equilibrium(mesh, medium, 500.0, 0.0, 0.0) < 1e-3


@pytest.mark.parametrize("name", ["1", "2"])
@pytest.mark.parametrize("k", [300.0, 500.0, 700.0])
def test_balance_outside_slab(name, k):
    medium = CASE_PRESETS[name]
    mesh = build_mesh(medium, 700.0, 160.0, 0.05, PML,
                      observation_points=(0.0, 0.0625))
    r = ids.check_thermal_equilibrium(mesh, medium, k, 0.0625, 0.0625)
    assert r < 5e-3


def test_balance_at_distinct_points():
    medium = CASE_PRESETS["1"]
    mesh = build_mesh(medium, 700.0, 160.0, 0.05, PML,
                      observation_points=(0.0, 0.0625))
    r = ids.check_thermal_equilibrium(mesh, medium, 410.0, 0.0, 0.0625)
    assert r < 5e-3


def test_balance_rejects_absorbing_layer_points():
    medium = CASE_PRESETS["1"]
    mesh = open_mesh(medium)
    with pytest.raises(ValueError, match="absorbing"):
        ids.check_thermal_equilibrium(mesh, medium, 500.0, 0.1, 0.0)
