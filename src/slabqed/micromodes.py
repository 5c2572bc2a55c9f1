"""Closed-box oscillator-bath eigenmodes and the smoothed emission rate.

The dissipative slab is traded for a conservative system: the Helmholtz
field on a Dirichlet box, plus a family of harmonic oscillators attached
to every slab element. Each oscillator sits at a sampled frequency nu_q
and carries the weight that the slab susceptibility assigns to a bin
around nu_q, so eliminating the oscillators at frequency omega returns a
discretized susceptibility chi_d(omega) that can be checked against the
medium directly (see ``effective_susceptibility``). The resulting pencil
(K, B) is real symmetric with B positive definite, so every mode is a
genuine normal mode with a real frequency, and the emission rate follows
from a Lorentzian-smoothed sum over modes (``ser_modes``).

Nothing in here touches absorbing layers: a stretched stiffness matrix is
complex symmetric, which would wreck the Hermitian eigenproblem, so
``build_gevp`` insists on meshes built by ``mesh.build_box_mesh``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .fem import DEFAULT_DOF_CAP, assemble, dense_tridiagonal
from .medium import ATOM_INSIDE, ATOM_OUTSIDE, MediumSpec
from .mesh import Mesh1D, build_box_mesh

# Bin placement: quantiles of a mixture of a uniform density and a
# flattened copy of the oscillator strength. The uniform share keeps the
# wings populated (the smoothed sum needs off-resonant modes too); the
# flattening exponent stops the resonance from swallowing every bin when
# gamma is small. Both were fixed by measuring the chi_d calibration
# error, not by any closed form.
_UNIFORM_SHARE = 0.3
_SHAPE_POWER = 0.75
_GRID_POINTS = 200001

# effective_susceptibility evaluates the bath comb this many local bin
# spacings off the real axis; fixed by the calibration measurements
_DELTA_FACTOR = 1.0


@dataclass(frozen=True)
class BathConfig:
    """Discretization knobs for the oscillator bath.

    n_bins oscillators are attached per slab element; nu_max is the top
    of the sampled frequency axis and must clear the medium resonance;
    box_length is the closed-domain size (at least four slab lengths, so
    the slab sits in a cavity rather than filling it).
    """

    n_bins: int = 24
    nu_max: float = 2000.0
    box_length: float = 0.625

    def __post_init__(self):
        if self.n_bins < 8:
            raise ValueError(f"n_bins must be >= 8, got {self.n_bins}")
        if self.nu_max <= 0:
            raise ValueError(f"nu_max must be > 0, got {self.nu_max}")
        if self.box_length <= 0:
            raise ValueError(
                f"box_length must be > 0, got {self.box_length}"
            )


def oscillator_strength(medium: MediumSpec, nu):
    """Spectral weight sigma(nu) = (2/pi) nu Im chi(nu), nu > 0.

    This is the density whose resolvent reproduces the susceptibility:
    integrating sigma(nu) / (nu^2 - omega^2 - i0) over nu recovers
    chi(omega), and integrating sigma alone gives omega_p^2. A lossless
    medium has sigma identically zero (its weight collapses onto the bare
    resonance; ``frequency_bins`` special-cases that).
    """
    nu = np.asarray(nu, dtype=float)
    return (2.0 / np.pi) * nu * medium.susceptibility(nu).imag


def frequency_bins(medium: MediumSpec, bath: BathConfig):
    """Sample the oscillator strength into (frequencies, weights).

    Bin edges are quantiles of the mixture density described at module
    top; each bin keeps the exact sigma-mass it covers and is represented
    at its sigma-weighted centroid. Returns a pair of float arrays of
    length ``bath.n_bins`` (or shorter in the degenerate cases: empty for
    vacuum, a single undamped line for gamma = 0).
    """
    if medium.omega_p == 0.0:
        return np.empty(0), np.empty(0)
    if bath.nu_max <= medium.omega_0:
        raise ValueError(
            f"nu_max = {bath.nu_max} does not clear the resonance at "
            f"{medium.omega_0}; the bath cannot represent the medium"
        )
    if medium.gamma == 0.0:
        return (
            np.array([medium.omega_0]),
            np.array([medium.omega_p**2]),
        )

    nu = np.linspace(bath.nu_max / _GRID_POINTS, bath.nu_max, _GRID_POINTS)
    dens = oscillator_strength(medium, nu)

    def cumulative(values):
        steps = 0.5 * (values[1:] + values[:-1]) * np.diff(nu)
        return np.concatenate(([0.0], np.cumsum(steps)))

    mass = cumulative(dens)
    shaped = cumulative(dens**_SHAPE_POWER)
    mixture = (
        _UNIFORM_SHARE * nu / bath.nu_max
        + (1.0 - _UNIFORM_SHARE) * shaped / shaped[-1]
    )
    mixture /= mixture[-1]

    edges = np.interp(
        np.linspace(0.0, 1.0, bath.n_bins + 1), mixture, nu
    )
    mass_at_edges = np.interp(edges, nu, mass)
    weights = np.diff(mass_at_edges)
    first_moment = cumulative(dens * nu)
    centroid_num = np.diff(np.interp(edges, nu, first_moment))
    midpoints = 0.5 * (edges[1:] + edges[:-1])
    centers = np.where(
        weights > 1e-300 * max(mass[-1], 1.0),
        centroid_num / np.maximum(weights, 1e-300),
        midpoints,
    )
    return centers, weights


@dataclass(frozen=True)
class GevpSystem:
    """Block data of the field + bath pencil, stored unassembled.

    The electromagnetic part lives on the interior nodes of a closed box
    (real symmetric tridiagonal stiffness/mass bands). Every slab element
    carries ``len(bin_frequencies)`` unit-mass oscillators; the coupling
    of oscillator (e, q) to the element's endpoint average is
    nu_q * sqrt(h_e * w_q), and a rank-one counterterm on the element
    keeps K positive semidefinite exactly (the Schur complement of the
    oscillator block at zero frequency is the bare stiffness).

    Dense matrices are only materialized by ``dense_operators``; the
    blocks alone are enough for ``effective_susceptibility``, which is
    why a finely binned calibration system stays cheap.
    """

    mesh: Mesh1D
    medium: MediumSpec
    bath: BathConfig
    em_s_diag: np.ndarray
    em_s_off: np.ndarray
    em_m_diag: np.ndarray
    em_m_off: np.ndarray
    slab_dof_pairs: np.ndarray
    slab_lengths: np.ndarray
    bin_frequencies: np.ndarray
    bin_weights: np.ndarray

    @property
    def n_em(self):
        return self.em_s_diag.size

    @property
    def n_matter(self):
        return self.slab_lengths.size * self.bin_frequencies.size

    @property
    def size(self):
        return self.n_em + self.n_matter

    def dense_operators(self):
        """Materialize (K, B) as dense float64 arrays.

        Refuses systems above ``fem.DEFAULT_DOF_CAP``: the eigensolve
        downstream is dense, and a runaway mesh or bin count should fail
        here with a clear message rather than by exhausting memory.
        """
        n = self.size
        if n > DEFAULT_DOF_CAP:
            raise ValueError(
                f"dense pencil needs {n} dofs, above the cap "
                f"{DEFAULT_DOF_CAP}; "
                "coarsen the mesh or reduce n_bins"
            )
        n_em = self.n_em
        nb = self.bin_frequencies.size
        K = np.zeros((n, n))
        B = np.zeros((n, n))

        K[:n_em, :n_em] = dense_tridiagonal(self.em_s_diag, self.em_s_off)
        B[:n_em, :n_em] = dense_tridiagonal(self.em_m_diag, self.em_m_off)

        if nb:
            total_weight = float(np.sum(self.bin_weights))
            alpha_line = self.bin_frequencies * np.sqrt(self.bin_weights)
            for e, (p, q) in enumerate(self.slab_dof_pairs):
                h_e = self.slab_lengths[e]
                cols = n_em + e * nb + np.arange(nb)
                K[cols, cols] = self.bin_frequencies**2
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


def build_gevp(mesh: Mesh1D, medium: MediumSpec, bath: BathConfig):
    """Assemble the block pencil for a closed-box mesh.

    The electromagnetic bands are the vacuum assembly (the slab response
    enters only through the oscillators, never through eps_r, or it would
    be counted twice). Meshes with absorbing layers are rejected.
    """
    if mesh.pml is not None:
        raise ValueError(
            "eigenmode route needs a closed box; rebuild the mesh without "
            "an absorbing layer"
        )
    vacuum = dataclasses.replace(medium, omega_p=0.0)
    bands = assemble(mesh, vacuum, k=1.0)
    s_diag, s_off = bands.stiffness_interior()
    m_diag, m_off = bands.mass_interior()

    centers, weights = frequency_bins(medium, bath)
    elements = mesh.slab_element_indices()
    pairs = np.column_stack((elements - 1, elements))
    if centers.size and elements.size:
        if pairs.min() < 0 or pairs.max() >= mesh.n_interior:
            raise ValueError("slab touches the box wall; enlarge the box")
    else:
        pairs = np.empty((0, 2), dtype=int)
        elements = np.empty(0, dtype=int)

    return GevpSystem(
        mesh=mesh,
        medium=medium,
        bath=bath,
        em_s_diag=np.ascontiguousarray(s_diag.real),
        em_s_off=np.ascontiguousarray(s_off.real),
        em_m_diag=np.ascontiguousarray(m_diag.real),
        em_m_off=np.ascontiguousarray(m_off.real),
        slab_dof_pairs=pairs,
        slab_lengths=mesh.element_lengths[elements],
        bin_frequencies=centers,
        bin_weights=weights,
    )


def effective_susceptibility(system: GevpSystem, omega: float):
    """Susceptibility the pencil actually implements, at frequency omega.

    Eliminating one element's oscillator block at complex frequency z
    leaves the element with an extra mass z^2 * h_e * chi_d(z); this
    returns chi_d(omega) continued to the real axis. The oscillator sum
    is only meaningful a little off the axis (it is a finite comb), so it
    is evaluated at z = omega + i*delta with delta tied to the local bin
    spacing (``_DELTA_FACTOR``), and the leading linear-in-delta error
    removed by a two-point extrapolation.
    """
    if omega <= 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    nu = system.bin_frequencies
    w = system.bin_weights
    if nu.size == 0:
        return 0.0 + 0.0j
    if np.min(np.abs(nu - omega)) == 0.0:
        raise ValueError(
            f"omega = {omega} collides with a bath bin; resample nearby"
        )
    if nu.size == 1:
        return complex(w[0] / (nu[0] ** 2 - omega**2))

    i = int(np.searchsorted(nu, omega))
    lo = max(min(i - 1, nu.size - 2), 0)
    gap = max(float(nu[lo + 1] - nu[lo]), 1e-12)
    delta = _DELTA_FACTOR * gap

    def comb(d):
        z = omega + 1j * d
        return np.sum(w / (nu**2 - z**2))

    return complex(2.0 * comb(delta) - comb(2.0 * delta))


@dataclass(frozen=True)
class ModeSet:
    """Eigenmodes of the pencil: frequencies, field profiles, certificate.

    e_fields holds one row per mode, sampled on every mesh node with the
    Dirichlet walls pinned to zero; normalization_residual is the largest
    deviation of the checked eigenvectors from B-orthonormality.
    """

    frequencies: np.ndarray
    e_fields: np.ndarray
    nodes: np.ndarray
    normalization_residual: float

    @property
    def n_modes(self):
        return self.frequencies.size

    def amplitude_at(self, x: float):
        """Per-mode field amplitude at x, linearly interpolated."""
        if x < self.nodes[0] or x > self.nodes[-1]:
            raise ValueError(f"x = {x} lies outside the box")
        j = int(np.clip(np.searchsorted(self.nodes, x), 1, self.nodes.size - 1))
        span = self.nodes[j] - self.nodes[j - 1]
        t = (x - self.nodes[j - 1]) / span
        return (1.0 - t) * self.e_fields[:, j - 1] + t * self.e_fields[:, j]

    def spacing_near(self, omega: float, count: int = 9):
        """Largest gap among the ``count`` mode frequencies nearest omega."""
        if self.n_modes < 2:
            raise ValueError("need at least two modes to define a spacing")
        order = np.argsort(np.abs(self.frequencies - omega))
        picked = np.sort(self.frequencies[order[: max(count, 2)]])
        return float(np.max(np.diff(picked)))


def diagonalize(system: GevpSystem, band=None) -> ModeSet:
    """Solve the dense pencil and package the modes.

    band, when given, is an (omega_lo, omega_hi) pair restricting which
    eigenfrequencies are kept; everything is computed either way (the
    dense solver has no useful partial mode, and the pencil is desk
    scale by construction).
    """
    K, B = system.dense_operators()
    values, vectors = scipy.linalg.eigh(K, B, overwrite_a=True)
    positive = values > 1e-12 * max(float(values[-1]), 1.0)
    freqs = np.sqrt(values[positive])
    vectors = vectors[:, positive]

    if band is not None:
        lo, hi = band
        if not lo < hi:
            raise ValueError(f"band must be (lo, hi) with lo < hi, got {band}")
        keep = (freqs >= lo) & (freqs <= hi)
        freqs = freqs[keep]
        vectors = vectors[:, keep]

    n_kept = freqs.size
    if n_kept == 0:
        raise ValueError("no positive eigenfrequencies in the requested band")

    sample = np.unique(np.linspace(0, n_kept - 1, min(n_kept, 256)).astype(int))
    probe = vectors[:, sample]
    gram = probe.T @ (B @ probe)
    residual = float(np.max(np.abs(gram - np.eye(sample.size))))

    fields = np.zeros((n_kept, system.mesh.n_nodes))
    fields[:, 1:-1] = vectors[: system.n_em].T
    return ModeSet(
        frequencies=freqs,
        e_fields=fields,
        nodes=system.mesh.nodes.copy(),
        normalization_residual=residual,
    )


def ser_modes(modes: ModeSet, x_a: float, omega_a: float, eta: float):
    """Lorentzian-smoothed emission rate at (x_a, omega_a).

    Gamma = sum_m eta * omega_m * |E_m(x_a)|^2 / ((omega_a - omega_m)^2
    + eta^2). The window eta must be at least twice the local mode
    spacing, otherwise the sum resolves individual modes instead of a
    rate and the result is meaningless.
    """
    if omega_a <= 0:
        raise ValueError(f"omega_a must be > 0, got {omega_a}")
    if eta <= 0:
        raise ValueError(f"eta must be > 0, got {eta}")
    spacing = modes.spacing_near(omega_a)
    if eta < 2.0 * spacing:
        raise ValueError(
            f"eta = {eta} is below twice the local mode spacing "
            f"({spacing:.4g}); widen eta or enlarge the box"
        )
    amp = modes.amplitude_at(x_a)
    lorentz = eta / ((omega_a - modes.frequencies) ** 2 + eta**2)
    return float(np.sum(modes.frequencies * np.abs(amp) ** 2 * lorentz))


def purcell_from_modes(modes: ModeSet, x_a: float, omega_a: float,
                       eta: float):
    """Emission rate from ``ser_modes`` over the free-space rate omega_a."""
    return ser_modes(modes, x_a, omega_a, eta) / omega_a


def gevp_mesh(medium: MediumSpec, bath: BathConfig, k_max: float = 1000.0,
              points_per_wavelength: float = 10.0) -> Mesh1D:
    """Closed-box mesh sized for the dense eigensolve.

    Both atom sites land on nodes so rates can be sampled there directly.
    """
    return build_box_mesh(
        medium,
        k_max,
        points_per_wavelength,
        bath.box_length,
        observation_points=(ATOM_INSIDE, ATOM_OUTSIDE),
    )
