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

The pointwise balance check compares the flux functional

    F(x_a, x_b) = Im G(x_a, x_b) - k^2 int chi_I G(x_a, x') G*(x', x_b) dx'

against the plane-wave correlation (1/(4k)) sum_{+-} Phi(x_a) Phi*(x_b),
computed from disjoint solver paths (point sources vs scattering states).
The scattering states are driven by the lattice plane wave, as in the
sweep's boundary rate, so this check and the sweep's ``tec_residual``
measure the same balance.
"""

from __future__ import annotations

import numpy as np

from .fem import DEFAULT_DOF_CAP, SystemMatrices, dense_tridiagonal
from .greens import slab_quadrature, solve_point_source
from .medium import MediumSpec
from .mesh import Mesh1D
from .scattering import lattice_plane_wave, solve_scattering


def _dense_green(system: SystemMatrices) -> np.ndarray:
    n = system.n_interior
    if n > DEFAULT_DOF_CAP:
        raise ValueError(
            f"dense inverse needs {n} dofs, above the cap {DEFAULT_DOF_CAP}; "
            "use a coarser mesh"
        )
    diag, off = system.operator_interior()
    return np.linalg.solve(
        dense_tridiagonal(diag, off), np.eye(n, dtype=complex)
    )


def check_discrete_ddgt(system: SystemMatrices) -> float:
    """Max-norm relative residual of the full two-channel decomposition.

    Exact linear algebra, so the residual is pure round-off (< 1e-10) for
    any assembled system, lossy or not. A closed lossless box degenerates
    to 0 = 0 and reports 0.
    """
    green = _dense_green(system)
    green_h = green.conj().T
    s_im = dense_tridiagonal(*system.stiffness_interior()).imag
    m_im = dense_tridiagonal(*system.mass_interior()).imag
    residual = (
        green.imag
        + green @ s_im @ green_h
        - system.k**2 * (green @ m_im @ green_h)
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

    green = _dense_green(system)
    m_im = dense_tridiagonal(*system.mass_interior()).imag
    residual = green.imag - system.k**2 * (green @ m_im @ green.conj().T)
    sub = np.ix_(keep, keep)
    num = float(np.max(np.abs(residual[sub])))
    den = float(np.max(np.abs(green.imag[sub])))
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
    points, weights = slab_quadrature(mesh)
    chi_imag = complex(medium.susceptibility(k)).imag
    correlation = np.sum(
        weights * field_a(points) * np.conj(field_b(points))
    )
    lhs = complex(field_a(x_beta)).imag - k**2 * chi_imag * correlation

    rhs = 0.0j
    wave = lattice_plane_wave(mesh, k)
    for direction in (+1, -1):
        sol = solve_scattering(mesh, medium, k, direction, wave)
        rhs += (complex(sol.total_at(x_alpha))
                * np.conj(complex(sol.total_at(x_beta))))
    rhs *= 0.25 / k
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
