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

G is dense and never held whole: the checks walk its columns in blocks J
of ``_BLOCK``, G[:, J] solved from the unit columns e_J through the
tridiagonal LU. Each step is column-local and a max-norm is exact, so the
residuals are bitwise those of the whole matrices, in O(n^2) time and
O(n b) memory, with no dense product or dense solve.

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
    static_bands,
)
from .greens import solve_point_source
from .medium import MediumSpec
from .mesh import Mesh1D
from .scattering import lattice_plane_wave, solve_scattering


# columns of G per block: a check holds four (n, _BLOCK) arrays, not G
_BLOCK = 32


def _sandwich(lu, bands, conj_green, out, work):
    """Columns J of G D G~ into ``out`` from conj(G[:, J]), ``work`` scratch.

    G is symmetric, so they are L^{-1} (D conj G[:, J]) for the real
    tridiagonal D = (diag, off): a banded product and one block solve.
    """
    diag, off = bands
    shifted = work[1:]
    np.multiply(diag[:, None], conj_green, out=out)
    np.multiply(off[:, None], conj_green[1:], out=shifted)
    out[:-1] += shifted
    np.multiply(off[:, None], conj_green[:-1], out=shifted)
    out[1:] += shifted
    return lu.solve_in_place(out)


def _imaginary_parts(bands):
    return tuple(band.imag for band in bands)


def _relative_residual(system: SystemMatrices, rows: slice, block_residual):
    """max|residual| / max|Im G| on the window ``rows`` x ``rows`` of G.

    For each block J of the window's columns, ``block_residual(lu, green,
    conj_green, out, work)`` returns the residual's rows; it may overwrite
    G[:, J] (``green``, read first) and work in ``out`` and ``work``. An
    exactly zero residual reports 0; each column costs O(n), so systems
    above the dof cap are refused.
    """
    n = system.n_interior
    if n > DEFAULT_DOF_CAP:
        raise ValueError(
            f"identity checks solve {n} dofs per column of G, above the cap "
            f"{DEFAULT_DOF_CAP}; use a coarser mesh"
        )
    lu = Factorization(system)
    columns = np.arange(n)[rows]
    # allocated once and reused: fresh blocks each time cost page faults
    # whenever the allocator hands the last block's memory back
    buffers = [np.empty((n, min(_BLOCK, columns.size)), dtype=complex,
                        order="F") for _ in range(4)]
    num = den = 0.0
    for start in range(0, columns.size, _BLOCK):
        block = columns[start:start + _BLOCK]
        green, conj_green, *spare = (buffer[:, :block.size]
                                     for buffer in buffers)
        green.fill(0.0)
        green[block, np.arange(block.size)] = 1.0
        np.conj(lu.solve_in_place(green), out=conj_green)
        # np.maximum, unlike max, keeps a NaN as np.max over G would
        den = np.maximum(den, np.abs(green.imag[rows]).max())
        residual = block_residual(lu, green, conj_green, *spare)
        num = np.maximum(num, np.abs(residual).max())
    if num == 0.0:
        return 0.0
    return float(num / max(den, 1e-300))


def check_discrete_ddgt(system: SystemMatrices) -> float:
    """Max-norm relative residual of the full two-channel decomposition.

    Exact linear algebra, so the residual is pure round-off (< 1e-10) for
    any assembled system, lossy or not. A closed lossless box degenerates
    to 0 = 0 and reports 0.
    """
    radiation = _imaginary_parts(system.stiffness_interior())
    medium = _imaginary_parts(system.mass_interior())

    def block_residual(lu, green, conj_green, residual, work):
        # in place, bitwise Im G + radiation - k^2 medium: + commutes exactly
        _sandwich(lu, radiation, conj_green, residual, work)
        residual += green.imag
        # Im G is spent, so green's block takes the medium term
        medium_part = _sandwich(lu, medium, conj_green, green, work)
        medium_part *= system.k**2
        residual -= medium_part
        return residual

    return _relative_residual(system, slice(None), block_residual)


def check_lossless_identity_failure(
    system: SystemMatrices,
    window: tuple[float, float] | None = None,
) -> float:
    """Residual of the medium-only identity Im G = k^2 G Im(M) G~.

    window restricts the reported max-norm to nodes with x in [lo, hi];
    the default is the physical (non-absorbing) region. With an absorbing
    layer present the residual is O(1) wherever radiation loss reaches,
    which is the point: this identity holds only for closed lossy systems.
    Only the window's columns of G are solved for.
    """
    mesh = system.mesh
    if window is None:
        window = (mesh.x_inner_left, mesh.x_inner_right)
    lo, hi = window
    x_interior = mesh.nodes[1:-1]
    keep = np.flatnonzero((x_interior >= lo) & (x_interior <= hi))
    if keep.size == 0:
        raise ValueError(f"no interior nodes inside window {window}")
    rows = slice(keep[0], keep[-1] + 1)  # the nodes are sorted: one run
    medium = _imaginary_parts(system.mass_interior())

    def block_residual(lu, green, conj_green, product, work):
        # in place, bitwise Im G - k^2 medium on the window's rows
        residual = _sandwich(lu, medium, conj_green, product, work)[rows]
        residual *= system.k**2
        return np.subtract(green.imag[rows], residual, out=residual)

    return _relative_residual(system, rows, block_residual)


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
