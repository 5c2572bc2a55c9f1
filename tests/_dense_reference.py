"""Dense copies of the banded operators, the references the tests compare to.

Nothing in ``src/`` forms these matrices: the eigenmode route works on the
bands and the Schur complement alone (``test_layering`` keeps it so). The
pointwise slab profile of a ``MediumSpec`` (``in_slab``,
``relative_permittivity``) is a reference too: the package places the slab
by the mesh's elements, not by a test at each point. So are the Gauss
points of the element rule (``element_quadrature``): the package applies
the rule once, to build the mass bands, and forms no point values.
"""

import numpy as np

from slabqed.fem import DEFAULT_DOF_CAP, GAUSS_NODES, GAUSS_WEIGHTS


def element_quadrature(mesh, elements=slice(None)):
    """The element rule on ``elements`` (default: every element).

    Returns (points, half, weights): the Gauss points (n, 4), the element
    half-lengths (n, 1) and the point weights half * GAUSS_WEIGHTS (n, 4),
    so ``np.sum(weights * f(points))`` integrates f over those elements.
    """
    half = 0.5 * mesh.element_lengths[elements][:, None]
    points = mesh.element_midpoints[elements, None] + half * GAUSS_NODES
    return points, half, half * GAUSS_WEIGHTS


def in_slab(medium, x):
    """True where ``x`` lies in the medium's slab, faces included."""
    return np.abs(x) <= medium.slab_half_length


def relative_permittivity(medium, x, omega):
    """eps_r(x, omega) = 1 + chi(omega) inside the slab, 1 outside.

    ``x`` may be a scalar or an ndarray; broadcasting against a scalar
    ``omega`` gives the permittivity profile at those points.
    """
    x = np.asarray(x, dtype=float)
    eps = np.ones(x.shape, dtype=complex)
    eps[in_slab(medium, x)] += medium.susceptibility(omega)
    return eps if eps.ndim else complex(eps)


def dense_tridiagonal(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Dense symmetric matrix from a diagonal and its off-diagonal band."""
    full = np.diag(diag)
    idx = np.arange(off.size)
    full[idx, idx + 1] = off
    full[idx + 1, idx] = off
    return full


def dense_operators(system):
    """The pencil (K, B) of a ``micromodes.GevpSystem`` as dense arrays.

    Refuses systems above ``fem.DEFAULT_DOF_CAP``: a runaway mesh or bin
    count should fail here with a clear message rather than by exhausting
    memory.
    """
    n = system.size
    if n > DEFAULT_DOF_CAP:
        raise ValueError(
            f"dense pencil needs {n} dofs, above the cap {DEFAULT_DOF_CAP}; "
            "coarsen the mesh or reduce n_bins"
        )
    n_em = system.n_em
    nb = system.bin_frequencies.size
    K = np.zeros((n, n))
    B = np.zeros((n, n))

    K[:n_em, :n_em] = dense_tridiagonal(system.em_s_diag, system.em_s_off)
    B[:n_em, :n_em] = dense_tridiagonal(system.em_m_diag, system.em_m_off)

    if nb:
        total_weight = float(np.sum(system.bin_weights))
        alpha_line = system.bin_frequencies * np.sqrt(system.bin_weights)
        for e, (p, q) in enumerate(system.slab_dof_pairs):
            h_e = system.slab_lengths[e]
            cols = n_em + e * nb + np.arange(nb)
            K[cols, cols] = system.bin_frequencies**2
            B[cols, cols] = 1.0
            half_coupling = -0.5 * np.sqrt(h_e) * alpha_line
            for dof in (p, q):
                K[dof, cols] += half_coupling
                K[cols, dof] += half_coupling
            counter = 0.25 * h_e * total_weight
            for a in (p, q):
                for b in (p, q):
                    K[a, b] += counter
    return K, B
