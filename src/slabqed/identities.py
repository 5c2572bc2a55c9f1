"""Structural checks on the assembled Helmholtz operator and its inverse.

The discrete operator L = S - k^2 M is complex symmetric, so its inverse
obeys an exact anti-Hermitian-part decomposition

    Im(G) = -G Im(S) G~ + G D G~,   G = L^{-1},  G~ = conj(G),

with D = -Im(L - L_vac) the loss the slab adds to the operator
(``SystemMatrices.loss_interior``; k^2 Im M on P1) and L_vac the operator
with an empty slab. It splits the local density of states into a
radiation-loss channel and a medium-loss channel (slab absorption makes D
nonzero). On an open mesh Im S is nonzero on the two nodes next to the
walls alone, where the exact outgoing condition lets the field leave: the
radiation channel is the discrete form of the fluctuating sources that
stand for radiation loss. Dropping the Im(S) term gives the medium-only
identity, which must fail wherever radiation escapes; its failure is the
operator-level reason the medium-only emission rate misses the boundary
contribution. In vacuum D = 0, so the medium-only residual is Im G itself
and reads exactly 1.

G is dense and never held whole: the checks walk its columns in blocks J
of ``_BLOCK``, G[:, J] solved from the unit columns e_J through the
tridiagonal LU. The medium channel on a block is one more block solve,
skipped where D is exactly zero; the radiation channel is rank 2 at
most, the two port columns of G (solved once per system) times two rows
of the block. Each step is column-local and a max-norm is exact, so the
width of the blocks leaves the residuals unchanged to the bit, in O(n^2)
time and O(n b) memory, with no dense inverse. Every check reduces both
residuals from one such walk over all the columns, and
``check_discrete_ddgt`` and ``check_lossless_identity_failure`` each
return one of them.

The pointwise balance check compares the flux functional

    F(x_a, x_b) = Im G(x_a, x_b) - g_b^H D g_a,   g = G(x, .),

on P1 Im G(x_a, x_b) - k^2 int chi_I G(x_a, x') G*(x', x_b) dx', against
the plane-wave correlation (1/(4k)) sum_{+-} Phi(x_a) Phi*(x_b), computed
from disjoint solver paths (point sources vs scattering states). The
scattering states are driven by the LU's lattice plane wave
(``Factorization.wave``) and the slab term is the operator's slab loss
over the slab's nodes (``Factorization.slab_loss``), as in the sweep's
boundary and medium rates, so this check and the sweep's ``tec_residual``
measure the same balance (to ~1e-8 relative where ``pf_b`` is not at
round-off).
"""

from __future__ import annotations

import numpy as np

from .fem import (
    DEFAULT_DOF_CAP,
    Factorization,
    SystemMatrices,
    factorization,
)
from .greens import solve_point_source
from .medium import MediumSpec
from .mesh import Mesh1D
from .scattering import solve_scattering


# columns of G per block: a walk holds at most four (n, _BLOCK) arrays
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
    return lu.solve(out)


def _radiation_ports(lu, system: SystemMatrices):
    """The ports p where Im S is nonzero, Im(s_p) and the columns G[:, p].

    Im S is the outgoing boundary's b rho on the diagonal of the two nodes
    next to the walls and zero on a closed box, so G Im S G~ [:, J] is
    G[:, p] (Im(s_p) conj G[p, J]): rank 2 at most, from the port columns
    solved once. A nonzero off-diagonal of Im S is refused.
    """
    diag, off = (band.imag for band in system.stiffness_interior())
    if np.any(off):
        raise ValueError("Im S has a nonzero off-diagonal; the radiation "
                         "channel is taken as diagonal")
    ports = np.flatnonzero(diag)
    columns = np.zeros((diag.size, ports.size), dtype=complex, order="F")
    columns[ports, np.arange(ports.size)] = 1.0
    lu.solve(columns)
    return ports, diag[ports, None], columns


def _window_rows(system: SystemMatrices, window) -> slice:
    """The interior rows with x in ``window``; default the physical region."""
    mesh = system.mesh
    if window is None:
        window = mesh.physical_region
    lo, hi = window
    x_interior = mesh.nodes[1:-1]
    keep = np.flatnonzero((x_interior >= lo) & (x_interior <= hi))
    if keep.size == 0:
        raise ValueError(f"no interior nodes inside window {window}")
    return slice(keep[0], keep[-1] + 1)  # the nodes are sorted: one run


def _relative_residuals(system: SystemMatrices, rows: slice):
    """Both identities' max|residual| / max|Im G|, from one walk of G.

    The two-channel residual is taken over every entry of G, the
    medium-only residual over the window ``rows`` x ``rows``; every column
    is solved for. G is held as G~ alone, since Im G = -Im G~ exactly, and
    a residual that is exactly zero reports 0. Each column costs O(n), so
    systems above the dof cap are refused.
    """
    n = system.n_interior
    if n > DEFAULT_DOF_CAP:
        raise ValueError(
            f"identity checks solve {n} dofs per column of G, above the cap "
            f"{DEFAULT_DOF_CAP}; use a coarser mesh"
        )
    lu = Factorization(system)
    ports, port_weights, port_columns = _radiation_ports(lu, system)
    medium = system.loss_interior()
    # D = 0 (vacuum) makes the medium part exactly zero: its buffer is
    # left at zero and no block is solved for it
    lossy = any(np.any(band) for band in medium)
    # allocated once and reused: fresh blocks each time cost page faults
    # whenever the allocator hands the last block's memory back
    buffers = [np.zeros((n, min(_BLOCK, n)), dtype=complex, order="F")
               for _ in range(4)]
    # [numerator, denominator] per identity; np.maximum, unlike max,
    # keeps a NaN as np.max over G would
    both, medium_only = [0.0, 0.0], [0.0, 0.0]
    for start in range(0, n, _BLOCK):
        width = min(_BLOCK, n - start)
        conj_green, medium_part, work, residual = (buffer[:, :width]
                                                   for buffer in buffers)
        conj_green.fill(0.0)
        conj_green[start + np.arange(width), np.arange(width)] = 1.0
        lu.solve(conj_green)
        np.conj(conj_green, out=conj_green)
        minus_im_green = conj_green.imag
        if lossy:
            _sandwich(lu, medium, conj_green, medium_part, work)
        # the window's columns within the block: both are runs
        cols = slice(max(rows.start - start, 0), min(rows.stop - start, width))
        if cols.start < cols.stop:
            window = work[rows, cols]
            # bitwise Im G - medium on the window
            np.negative(minus_im_green[rows, cols], out=window)
            window -= medium_part[rows, cols]
            medium_only[0] = np.maximum(medium_only[0], np.abs(window).max())
            medium_only[1] = np.maximum(
                medium_only[1], np.abs(minus_im_green[rows, cols]).max())
        # (radiation + Im G) - medium, the radiation channel
        # G Im S G~ [:, J] from the port columns
        np.matmul(port_columns, port_weights * conj_green[ports],
                  out=residual)
        residual -= minus_im_green
        residual -= medium_part
        both[0] = np.maximum(both[0], np.abs(residual).max())
        both[1] = np.maximum(both[1], np.abs(minus_im_green).max())

    def ratio(num, den):
        return 0.0 if num == 0.0 else float(num / max(den, 1e-300))

    return ratio(*both), ratio(*medium_only)


def check_discrete_ddgt(system: SystemMatrices) -> float:
    """Max-norm relative residual of the full two-channel decomposition.

    Exact linear algebra, so the residual is pure round-off (< 1e-10) for
    any assembled system, lossy or not. A closed lossless box degenerates
    to 0 = 0 and reports 0. ``check_identities(system)[0]``.
    """
    return check_identities(system)[0]


def check_lossless_identity_failure(
    system: SystemMatrices,
    window: tuple[float, float] | None = None,
) -> float:
    """Residual of the medium-only identity Im G = G D G~.

    window restricts the reported max-norm to nodes with x in [lo, hi];
    the default is the mesh's physical region. On an open mesh the
    residual is O(1) wherever radiation loss reaches, which is the point:
    this identity holds only for closed lossy systems.
    ``check_identities(system, window)[1]``.
    """
    return check_identities(system, window)[1]


def check_identities(
    system: SystemMatrices,
    window: tuple[float, float] | None = None,
) -> tuple[float, float]:
    """``check_discrete_ddgt`` and ``check_lossless_identity_failure``.

    Both residuals from one LU and one walk over the columns of G: the
    medium-only identity reads the window's part of the columns the
    two-channel one solves for anyway.
    """
    return _relative_residuals(system, _window_rows(system, window))


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
    lo, hi = mesh.physical_region
    for x in (x_alpha, x_beta):
        if not lo <= x <= hi:
            raise ValueError(
                f"evaluation point {x} lies outside the physical region "
                f"[{lo}, {hi}]"
            )

    field_a = solve_point_source(mesh, medium, k, x_alpha)
    if x_beta == x_alpha:
        field_b = field_a
    else:
        field_b = solve_point_source(mesh, medium, k, x_beta)
    nodes = mesh.slab_nodes
    lhs = complex(field_a(x_beta)).imag - factorization(
        mesh, medium, k).slab_loss(field_a.dofs[nodes], field_b.dofs[nodes])

    rhs = 0.0j
    node_a, node_b = mesh.find_node(x_alpha), mesh.find_node(x_beta)
    for direction in (+1, -1):
        sol = solve_scattering(mesh, medium, k, direction)
        rhs += (sol.total_at_nodes(node_a)
                * np.conj(sol.total_at_nodes(node_b)))
    rhs *= 0.25 / k
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
