"""Structural checks on the assembled Helmholtz operator and its inverse.

The discrete operator L = S - k^2 M is complex symmetric, so its inverse
obeys an exact anti-Hermitian-part decomposition

    Im(G) = -G Im(S) G~ + k^2 G Im(M) G~,   G = L^{-1},  G~ = conj(G),

splitting the local density of states into a radiation-loss channel (the
absorbing layer makes Im S nonzero) and a medium-loss channel (slab
absorption makes Im M nonzero). Dropping the Im(S) term gives the
medium-only identity, which must fail wherever radiation escapes; its
failure is the operator-level reason the medium-only emission rate misses
the boundary contribution.

G is dense, but it comes through the tridiagonal LU: one block solve of
the identity, O(n^2). Each term G D G~ is L^{-1} (D conj G), a banded
product and one more block solve, so no dense matrix product or dense
solve is formed. The two checks on one system share its G, which is
freed with the system.

The pointwise balance check compares the flux functional

    F(x_a, x_b) = Im G(x_a, x_b) - k^2 int chi_I G(x_a, x') G*(x', x_b) dx'

against the plane-wave correlation (1/(4k)) sum_{+-} Phi(x_a) Phi*(x_b),
computed from disjoint solver paths (point sources vs scattering states).
The scattering states are driven by the lattice plane wave and the slab
integral is the band form over the slab's nodes, as in the sweep's
boundary and medium rates, so this check and the sweep's ``tec_residual``
measure the same balance.
"""

from __future__ import annotations

import numpy as np

from .fem import (
    DEFAULT_DOF_CAP,
    Factorization,
    SystemMatrices,
    kept,
    static_bands,
)
from .greens import solve_point_source
from .medium import MediumSpec
from .mesh import Mesh1D
from .scattering import lattice_plane_wave, solve_scattering


def _inverse(system: SystemMatrices):
    """The LU of L and G = L^{-1} on the interior, kept with the system.

    G comes from one block solve of the identity through the tridiagonal
    LU, O(n^2); it is dense, so systems above the dof cap are refused.
    """
    n = system.n_interior
    if n > DEFAULT_DOF_CAP:
        raise ValueError(
            f"dense inverse needs {n} dofs, above the cap "
            f"{DEFAULT_DOF_CAP}; use a coarser mesh"
        )

    def build():
        lu = Factorization(system)
        return lu, lu.solve(np.eye(n, dtype=complex))[1:-1]

    return kept(system, "inverse", None, build)


def _sandwich(system: SystemMatrices, bands, columns=slice(None)):
    """Columns of G D G~ for the real tridiagonal D = (diag, off).

    G is symmetric, so G D G~ = L^{-1} (D conj G): a banded product and one
    more block solve, O(n^2) for all columns.
    """
    lu, green = _inverse(system)
    diag, off = bands
    block = np.conj(green[:, columns])
    product = diag[:, None] * block
    product[:-1] += off[:, None] * block[1:]
    product[1:] += off[:, None] * block[:-1]
    return lu.solve(product)[1:-1]


def _imaginary_parts(bands):
    return tuple(band.imag for band in bands)


def check_discrete_ddgt(system: SystemMatrices) -> float:
    """Max-norm relative residual of the full two-channel decomposition.

    Exact linear algebra, so the residual is pure round-off (< 1e-10) for
    any assembled system, lossy or not. A closed lossless box degenerates
    to 0 = 0 and reports 0.
    """
    _, green = _inverse(system)
    residual = (
        green.imag
        + _sandwich(system, _imaginary_parts(system.stiffness_interior()))
        - system.k**2 * _sandwich(
            system, _imaginary_parts(system.mass_interior()))
    )
    num = float(np.max(np.abs(residual)))
    den = float(np.max(np.abs(green.imag)))
    if num == 0.0:
        return 0.0
    return num / max(den, 1e-300)


def check_lossless_identity_failure(
    system: SystemMatrices,
    window: tuple[float, float] | None = None,
) -> float:
    """Residual of the medium-only identity Im G = k^2 G Im(M) G~.

    window restricts the reported max-norm to nodes with x in [lo, hi];
    the default is the physical (non-absorbing) region. With an absorbing
    layer present the residual is O(1) wherever radiation loss reaches,
    which is the point: this identity holds only for closed lossy systems.
    """
    mesh = system.mesh
    if window is None:
        window = (mesh.x_inner_left, mesh.x_inner_right)
    lo, hi = window
    x_interior = mesh.nodes[1:-1]
    keep = np.flatnonzero((x_interior >= lo) & (x_interior <= hi))
    if keep.size == 0:
        raise ValueError(f"no interior nodes inside window {window}")

    _, green = _inverse(system)
    medium = _sandwich(system, _imaginary_parts(system.mass_interior()), keep)
    green_imag = green.imag[np.ix_(keep, keep)]
    residual = green_imag - system.k**2 * medium[keep]
    num = float(np.max(np.abs(residual)))
    den = float(np.max(np.abs(green_imag)))
    if num == 0.0:
        return 0.0
    return num / max(den, 1e-300)


def check_thermal_equilibrium(
    mesh: Mesh1D,
    medium: MediumSpec,
    k: float,
    x_alpha: float,
    x_beta: float,
) -> float:
    """Relative residual of the flux-vs-plane-wave balance at (x_a, x_b).

    Both points must be mesh nodes in the physical region. The two sides
    come from independent solves sharing one LU: point sources
    for the flux functional, lattice scattering states for the correlation
    sum.
    """
    for x in (x_alpha, x_beta):
        if not mesh.x_inner_left <= x <= mesh.x_inner_right:
            raise ValueError(
                f"evaluation point {x} lies in the absorbing layer"
            )

    field_a = solve_point_source(mesh, medium, k, x_alpha)
    if x_beta == x_alpha:
        field_b = field_a
    else:
        field_b = solve_point_source(mesh, medium, k, x_beta)
    static = static_bands(mesh)
    nodes = mesh.slab_nodes
    chi_imag = complex(medium.susceptibility(k)).imag
    correlation = static.slab_inner(field_a.dofs[nodes], field_b.dofs[nodes])
    lhs = complex(field_a(x_beta)).imag - k**2 * chi_imag * correlation

    rhs = 0.0j
    wave = lattice_plane_wave(mesh, k)
    node_a, node_b = mesh.find_node(x_alpha), mesh.find_node(x_beta)
    for direction in (+1, -1):
        sol = solve_scattering(mesh, medium, k, direction, wave)
        rhs += sol.total_at_node(node_a) * np.conj(sol.total_at_node(node_b))
    rhs *= 0.25 / k
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
