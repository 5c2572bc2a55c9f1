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
from a Lorentzian-smoothed sum over modes (``ser_modes``), which reads one
number per mode: its intensity |E_m(x_a)|^2 at the atom.

No dense matrix is formed. Eliminating the oscillators at lam = omega^2
leaves a tridiagonal Schur complement S(lam) on the field dofs (``_Schur``):

* Frequencies. The LDL^T pivots of S count the pencil eigenvalues below
  lam (Wittrick-Williams, ``eigenvalue_count``). ``diagonalize`` brackets
  every mode of the band at once with that count, each eigenvalue carried
  as an offset from its nearest bin: bisection until a bracket holds one
  mode, then count-safeguarded steps on the last pivot, each the zero of a
  rational interpolant that follows the pivot's pole beside the mode, with
  a guard probe past any step that did not halve the bracket; once few
  modes are left, each bisection round spreads several probes over the
  bracket (multisection), since a pivot sweep costs mostly per row
  (``_bisect``). The box's two vacuum walls are exactly uniform spans of
  equal rows, which the count takes in closed form (``fem.uniform_sweep``),
  so a sweep runs over the 151 rows between them, not all 995.
* Intensities. The field block of (K - lam B)^-1 is S(lam)^-1, so
  [S^-1]_aa has a pole at every mode with residue -x_m(a)^2. One forward
  and one backward pivot sweep, differentiated in lam, give all of them at
  once (``fem.twisted_residues``); ``ModeSet.intensity_at`` computes them
  for the x it is asked about and keeps them with the mode set.
* Vectors. Residues cannot tell apart modes closer than ``_CLUSTER_GAP``,
  so those, and a sample of modes spread across the band, get their field
  part by inverse iteration on S and their oscillator part by back
  substitution, B-orthonormalized within each cluster. The clustered modes
  take their intensities from the vectors. On the sample two certificates
  are measured: the deviation from B-orthonormality, and the gap between
  the residue and the vector intensities (``ModeSet.residue_residual``).

Nothing in here touches the open boundary: its outgoing condition makes
the stiffness complex symmetric, which would wreck the Hermitian
eigenproblem, so ``build_gevp`` insists on meshes built by
``mesh.build_box_mesh``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fem import (
    DEFAULT_DOF_CAP,
    inverse_iteration,
    kept,
    pivot_sweep,
    static_bands,
    twisted_residues,
    uniform_sweep,
)
from .medium import ATOM_INSIDE, ATOM_OUTSIDE, MediumSpec
from .mesh import InputError, Mesh1D, build_box_mesh, unique_columns

# Bin placement: quantiles of a mixture of a uniform density and a
# flattened copy of the oscillator strength. The uniform share keeps the
# wings populated (the smoothed sum needs off-resonant modes too); the
# flattening exponent stops the resonance from swallowing every bin when
# gamma is small. Both were fixed by measuring the chi_d calibration
# error, not by any closed form.
_UNIFORM_SHARE = 0.3
_SHAPE_POWER = 0.75
_GRID_POINTS = 200001
# the grid's step nu_max / _GRID_POINTS may be at most this many gamma: up
# to 0.3 the bins kept the f-sum omega_p^2 (1 - (2/pi) gamma / nu_max) to
# 3e-5 relative on presets 1 and 2; at 0.4 they missed it by 8e-4, and by
# 9% once the step reached gamma
_STEP_PER_GAMMA = 0.3

# diagonalize orthogonalizes neighbouring modes whose spacing is below this
# fraction of their offset from the nearest bin: inverse iteration alone left
# B products ~2e-14 / (spacing / offset) between them (cases 1A, 2A and the
# small reference boxes), so 1e-2 keeps every other pair near 1e-12
_CLUSTER_GAP = 1e-2

# inverse iteration takes the modes this many at a time (bounds memory)
_MODE_BLOCK = 256

# the steps per mode and per dof of the start vectors' Weyl sequence: 1/g
# and 1/g^2 for the plastic number g, the real root of g^3 = g + 1
_WEYL = (0.7548776662466927, 0.5698402909980532)

# the certificates are measured on this many modes spread across the band
_SAMPLE = 256

# a bisection round places min(_MULTISECTION, _PROBE_BUDGET // active)
# evenly spaced probes per mode still active: a sweep costs ~1 ms per call
# and ~1-2 us per column, so a few modes fill one sweep with many probes
# for little more than one. On the 1A/2A counts (band [1, 1000]) this cut
# the sweeps from 75/70 to 49/50 against one probe per round, for 3.5%
# more columns; 15 or 63 probes, or a budget of 128 or 512, moved either
# count by 0-3 and the columns by under 3%. Budgeting per distinct
# bracket instead of per mode saved 6 more sweeps for as many columns'
# cost, with no timing outside the noise
_MULTISECTION = 31
_PROBE_BUDGET = 256

# _Schur counts a run of at least this many equal rows at an end of the
# band in closed form: its ~30 ufunc calls cost about as much as sweeping
# this many rows one by one
_CONDENSE = 32

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
        if not (np.isfinite(self.nu_max) and self.nu_max > 0):
            raise ValueError(f"nu_max must be > 0, got {self.nu_max}")
        if not (np.isfinite(self.box_length) and self.box_length > 0):
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


def nu_max_range(medium: MediumSpec):
    """(low, high): a bath for ``medium`` needs low < nu_max <= high.

    nu_max must clear the resonance omega_0, and the grid that samples
    sigma must resolve its width gamma (``_STEP_PER_GAMMA``); a lossless
    medium needs no grid.
    """
    high = _STEP_PER_GAMMA * medium.gamma * _GRID_POINTS
    return medium.omega_0, high if high else np.inf


def bin_count(medium: MediumSpec, bath: BathConfig) -> int:
    """How many bins ``frequency_bins`` samples, known before it samples:
    none for an empty slab, one undamped line for a lossless one, else
    ``bath.n_bins``. A nu_max outside ``nu_max_range`` is refused
    (``InputError``)."""
    if medium.omega_p == 0.0:
        return 0
    low, high = nu_max_range(medium)
    if not low < bath.nu_max <= high:
        raise InputError(
            f"must clear the resonance at {low!r} and resolve gamma = "
            f"{medium.gamma!r}", {"nu_max": bath.nu_max},
            ("nu_max", f"> {low!r} and <= {high!r}"))
    return bath.n_bins if medium.gamma else 1


def frequency_bins(medium: MediumSpec, bath: BathConfig):
    """Sample the oscillator strength into (frequencies, weights).

    Bin edges are quantiles of the mixture density described at module
    top; each bin keeps the exact sigma-mass it covers and is represented
    at its sigma-weighted centroid. Returns a pair of float arrays of
    length ``bin_count``: ``bath.n_bins``, or none for vacuum and a single
    undamped line for gamma = 0. ``bin_count`` refuses a nu_max outside
    ``nu_max_range``.
    """
    count = bin_count(medium, bath)
    if count < 2:
        return np.full(count, medium.omega_0), np.full(count,
                                                       medium.omega_p**2)

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

    The blocks alone are enough for ``diagonalize``, ``eigenvalue_count``
    and ``effective_susceptibility``, which is why a finely binned
    calibration system stays cheap; nothing here materializes K or B.
    """

    mesh: Mesh1D
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


def check_pencil(mesh: Mesh1D, n_bins: int):
    """Refuse a pencil above ``DEFAULT_DOF_CAP`` dofs on ``mesh``, with
    ``n_bins`` oscillators on each slab element (``bin_count``).

    Its size is known from the mesh alone, so this runs before any bin is
    sampled. The ``InputError`` bounds n_bins when at least 8 bins, the
    fewest ``BathConfig`` takes, would fit, and the box length otherwise.
    """
    slab = mesh.slab_elements
    n_em, n_slab = mesh.n_interior, slab.stop - slab.start
    size = n_em + n_slab * n_bins
    if size <= DEFAULT_DOF_CAP:
        return
    why = f"gives a pencil of {size} dofs, above the cap {DEFAULT_DOF_CAP}"
    room = (DEFAULT_DOF_CAP - n_em) // max(n_slab, 1)
    if n_bins and room >= 8:
        raise InputError(why, {"n_bins": n_bins}, ("n_bins", f"<= {room}"))
    length = float(mesh.nodes[-1] - mesh.nodes[0])
    raise InputError(why, {"box_length": length},
                     ("box_length", f"< {length!r}"))


def build_gevp(mesh: Mesh1D, medium: MediumSpec, bath: BathConfig):
    """Assemble the block pencil for a closed-box mesh.

    The electromagnetic bands are the vacuum stiffness and mass of the
    mesh's static bands (the slab response enters only through the
    oscillators, never through eps_r, or it would be counted twice). Open
    meshes are rejected.
    """
    if mesh.is_open:
        raise ValueError(
            "eigenmode route needs a closed box; build the mesh with "
            "build_box_mesh"
        )
    bands = static_bands(mesh)
    s_diag, s_off = bands.s_diag[1:-1], bands.s_off[1:-1]
    m_diag, m_off = bands.m0_diag[1:-1], bands.m0_off[1:-1]

    centers, weights = frequency_bins(medium, bath)
    elements = np.arange(mesh.slab_elements.start, mesh.slab_elements.stop)
    pairs = np.column_stack((elements - 1, elements))
    if centers.size and elements.size:
        if pairs.min() < 0 or pairs.max() >= mesh.n_interior:
            raise ValueError("slab touches the box wall; enlarge the box")
    else:
        pairs = np.empty((0, 2), dtype=int)
        elements = np.empty(0, dtype=int)

    return GevpSystem(
        mesh=mesh,
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


@dataclass(frozen=True, eq=False)
class ModeSet:
    """Eigenmodes of the pencil: frequencies, intensities, certificates.

    ``frequencies`` ascend. ``intensity_at(x)`` gives every mode's
    |E_m(x)|^2. ``vectors`` holds field profiles sampled on every mesh
    node, walls pinned to zero: one row per mode of ``vector_modes``, or
    per mode when that is None. A set from ``diagonalize`` has vectors
    only for its clustered and sample modes and carries ``residues`` for
    the rest; a set without ``residues`` reads every intensity off its
    vectors. normalization_residual is the largest deviation of the sample
    vectors from B-orthonormality, and count_sweeps the number of
    inertia-count pivot sweeps spent finding the frequencies (0 for modes
    that did not come from ``diagonalize``). A set compares by identity;
    the intensities at the last x asked for are kept with it.
    """

    frequencies: np.ndarray
    vectors: np.ndarray
    nodes: np.ndarray
    normalization_residual: float
    count_sweeps: int = 0
    vector_modes: np.ndarray | None = None
    residues: _Residues | None = None

    @property
    def n_modes(self):
        return self.frequencies.size

    def intensity_at(self, x: float) -> np.ndarray:
        """|E_m(x)|^2 of every mode, from the P1 interpolant of E_m."""
        return self._intensities(x)[0]

    def residue_residual(self, x: float) -> float:
        """Largest gap between residue and vector intensities at x.

        Taken over the sample modes whose intensities come from residues,
        relative to the largest of their vector intensities; 0 for a set
        without ``residues``.
        """
        return self._intensities(x)[1]

    def _intensities(self, x):
        lo, hi = float(self.nodes[0]), float(self.nodes[-1])
        if not lo <= x <= hi:
            raise InputError("lies outside the box", {"x": float(x)},
                             ("x", f"in [{lo!r}, {hi!r}]"))
        j = int(np.clip(np.searchsorted(self.nodes, x), 1,
                        self.nodes.size - 1))
        t = (x - self.nodes[j - 1]) / (self.nodes[j] - self.nodes[j - 1])
        exact = ((1.0 - t) * self.vectors[:, j - 1]
                 + t * self.vectors[:, j]) ** 2
        if self.residues is None:
            return exact, 0.0
        return kept(self, "intensities", x, lambda: self.residues.intensities(
            j, t, exact, self.vector_modes))

    def spacing_near(self, omega: float, count: int = 9):
        """Largest gap among the ``count`` mode frequencies nearest omega.

        Of two frequencies at the same distance |f - omega| the lower is
        taken. The frequencies ascend, so the nearest ``count`` lie among
        the ``count`` on either side of omega.
        """
        if self.n_modes < 2:
            raise ValueError("need at least two modes to define a spacing")
        count = max(count, 2)
        near = int(np.searchsorted(self.frequencies, omega))
        window = self.frequencies[max(near - count, 0):near + count]
        order = np.argsort(np.abs(window - omega), kind="stable")
        picked = np.sort(window[order[:count]])
        return float(np.max(np.diff(picked)))


@dataclass
class _Schur:
    """The pencil seen through its Schur complement on the field dofs.

    The oscillators of a slab element do not couple to one another, so
    eliminating them at lam = omega^2 leaves the tridiagonal

        S(lam) = K_em - lam B_em + g(lam) A,  g = -lam sum_q w_q / (nu_q^2 - lam),

    where A adds h_e/4 to the four (p, q) entries of each slab element (g
    is the counterterm sum_q w_q minus sum_q nu_q^2 w_q / (nu_q^2 - lam),
    in a form free of cancellation at small lam). By Haynsworth inertia
    additivity (Wittrick-Williams) the number of pencil eigenvalues below
    lam is n_slab_elements * #{nu_q^2 < lam} plus the negative LDL^T pivots
    of S(lam). A run of at least ``_CONDENSE`` equal rows at either end of
    the band, a box wall's uniform vacuum span, is counted in closed form
    (``fem.uniform_sweep``): the top run from the wall, the bottom one from
    the pivot the rows between carry into it, so the counts and the last
    pivot keep their meaning and only the rows between are swept.

    Eigenvalues are carried as lam = anchors[a] + delta about the nearest
    bin (anchor 0 is lam = 0 itself, the only one without a bath).
    Near-dark modes sit within 4e-6..0.06 of a bin nu_q^2 ~ 2.5e5, so
    nu_q^2 - lam formed from lam would lose ~1e-9 relative, and with it the
    B-orthonormality of the oscillator parts; every detuning is therefore
    formed as gaps[a, q] - delta. The band rows of S are stored once per
    distinct (K_em, B_em, A) triple: the stock box's exactly uniform spans
    give 7 diagonal and 4 off-diagonal ones, so a count costs one pivot
    sweep over the 151 rows between its two walls' runs and no (n_em, m)
    matrix.
    """

    anchors: np.ndarray     # (n_bins + 1,): 0, then every nu_q^2
    gaps: np.ndarray        # (n_bins + 1, n_bins): nu_q^2 - anchors[a]
    weights: np.ndarray     # (n_bins,): w_q
    n_elements: int
    diag_rows: np.ndarray   # (3, k): distinct (K_em, B_em, A) diagonal entries
    diag_index: np.ndarray  # (n_em,): row of each diagonal entry
    off_rows: np.ndarray    # (3, k'): the same for the off-diagonal
    off_index: np.ndarray   # (n_em - 1,)
    top: int                # rows of the equal run at the top, or 0
    bottom: int             # rows of the equal run at the bottom, or 0
    sweeps: int = 0         # pivot sweeps made so far

    @classmethod
    def of(cls, system: GevpSystem):
        nu2 = system.bin_frequencies**2
        anchors = np.concatenate(([0.0], nu2))
        p, q = system.slab_dof_pairs.T
        quarter = 0.25 * system.slab_lengths
        a_diag = np.zeros(system.n_em)
        a_diag[p] += quarter  # p and q each list every slab element once
        a_diag[q] += quarter
        a_off = np.zeros(system.n_em - 1)
        a_off[p] = quarter
        diag_rows, _, diag_index = unique_columns(
            np.stack((system.em_s_diag, system.em_m_diag, a_diag)))
        off_rows, _, off_index = unique_columns(
            np.stack((system.em_s_off, system.em_m_off, a_off)))
        # a run is its equal rows and the couplings from each of them to
        # the next row, or from the row before into it; one row is left
        # between the runs at least
        top = _run(diag_index, off_index)
        bottom = _run(diag_index[::-1], off_index[::-1],
                      diag_index.size - 1 - top)
        return cls(
            anchors=anchors,
            gaps=nu2[None, :] - anchors[:, None],
            weights=system.bin_weights,
            n_elements=system.slab_lengths.size,
            diag_rows=diag_rows,
            diag_index=diag_index,
            off_rows=off_rows,
            off_index=off_index,
            top=top,
            bottom=bottom,
        )

    def nearest(self, lam):
        """Index of the anchor nearest each lam."""
        return np.argmin(np.abs(lam[:, None] - self.anchors), axis=1)

    def detune(self, anchor, delta):
        """nu_q^2 - lam for every bin (m, n_bins), free of cancellation."""
        return self.gaps[anchor] - delta[:, None]

    def bands(self, anchor, delta):
        """Distinct band rows of S at each lam, and ``detune``.

        Returns (diag, off, detune); diag[:, j] holds the distinct diagonal
        entries of S(lam_j), spread over the rows by ``diag_index``.
        """
        lam = self.anchors[anchor] + delta
        detune = self.detune(anchor, delta)
        g = -lam * np.sum(self.weights / detune, axis=1)

        def rows(table):
            s, m, a = table[:, :, None]
            return s - m * lam + a * g

        return rows(self.diag_rows), rows(self.off_rows), detune

    def sweep(self, anchor, delta):
        """Pencil eigenvalues below lam = anchors[anchor] + delta, each.

        Returns the counts and the last LDL^T pivot of each S(lam); every
        call is one pivot sweep, tallied in ``sweeps``. The end runs are
        taken in closed form and the rows between by ``pivot_sweep``.
        """
        diag, off, detune = self.bands(anchor, delta)
        off2 = off * off
        top, end = self.top, self.diag_index.size - self.bottom
        rows = _spread(diag, self.diag_index[top:end])
        negative = self.n_elements * np.count_nonzero(detune < 0.0, axis=1)
        if top:  # a run's couplings, into the next row too, are its own
            count, pivot = uniform_sweep(diag[self.diag_index[0]],
                                         off[self.off_index[0]], top, np.inf)
            negative += count
            with np.errstate(divide="ignore"):
                rows[0] = rows[0] - off2[self.off_index[0]] / pivot
        count, last = pivot_sweep(rows,
                                  _spread(off2, self.off_index[top:end - 1]))
        negative += count
        if self.bottom:
            count, last = uniform_sweep(diag[self.diag_index[-1]],
                                        off[self.off_index[-1]], self.bottom,
                                        last)
            negative += count
        self.sweeps += 1
        return negative, last

    def count_at(self, lam):
        """Counts at plain lam values; one exactly on a bin moves an ulp down."""
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        anchor = self.nearest(lam)
        delta = lam - self.anchors[anchor]
        on_bin = (delta == 0.0) & (anchor > 0)
        delta[on_bin] = -np.spacing(self.anchors[anchor[on_bin]])
        return self.sweep(anchor, delta)[0]

    def matrices(self, anchor, delta):
        """Full bands of S, one row per lam: (m, n_em) and (m, n_em - 1)."""
        diag, off, _ = self.bands(anchor, delta)
        return diag.T[:, self.diag_index], off.T[:, self.off_index]

    def residues(self, anchor, delta, edge):
        """x(edge)^2, x(edge + 1)^2 and sign(x(edge) x(edge + 1)) per mode.

        x is the field part of the B-normalized mode at each lam =
        anchors[anchor] + delta. ``fem.twisted_residues`` runs on S and
        dS/dlam = -B_em + g'(lam) A, with g' = -sum w/D - lam sum w/D^2 in
        the offset form D = gaps - delta that ``detune`` gives.
        """
        lam = self.anchors[anchor] + delta
        diag, off, detune = self.bands(anchor, delta)
        ratio = self.weights / detune
        dg = -np.sum(ratio, axis=1) - lam * np.sum(ratio / detune, axis=1)

        def slopes(table):
            _, m, a = table[:, :, None]
            return a * dg - m

        doff2 = 2.0 * off * slopes(self.off_rows)
        lo, hi, pivot = twisted_residues(
            _spread(diag, self.diag_index),
            _spread(slopes(self.diag_rows), self.diag_index),
            _spread(off * off, self.off_index),
            _spread(doff2, self.off_index),
            edge,
        )
        return lo, hi, -np.sign(off[self.off_index[edge]]) * np.sign(pivot)


@dataclass(frozen=True, eq=False)
class _Residues:
    """Every mode's (anchor, delta) on the Schur tables, for ``ModeSet``.

    ``clustered`` marks the rows of the set's vectors whose modes take
    their intensities from the vectors; the other rows are the sample.
    """

    schur: _Schur
    anchor: np.ndarray
    delta: np.ndarray
    clustered: np.ndarray

    def intensities(self, j, t, exact, vector_modes):
        """(every mode's intensity, residue residual) at t in mesh cell j.

        ``exact`` holds the vector intensities there. Nodes j - 1 and j are
        field dofs j - 2 and j - 1, or a wall. Off a node the interpolant's
        square needs sign(x(j - 2) x(j - 1)) as well as both residues.
        """
        edge = min(max(j - 2, 0), self.schur.diag_index.size - 2)
        lo, hi, sign = self.schur.residues(self.anchor, self.delta, edge)
        at_node = {edge + 1: lo, edge + 2: hi}
        u2 = at_node.get(j - 1, np.zeros_like(lo))
        v2 = at_node.get(j, np.zeros_like(lo))
        if t == 0.0:
            out = u2.copy()
        elif t == 1.0:
            out = v2.copy()
        else:
            cross = sign * np.sqrt(np.maximum(u2 * v2, 0.0))
            out = ((1.0 - t) ** 2 * u2 + t**2 * v2
                   + 2.0 * t * (1.0 - t) * cross)
        sample = ~self.clustered
        gap = np.abs(out[vector_modes[sample]] - exact[sample])
        out[vector_modes[self.clustered]] = exact[self.clustered]
        scale = np.max(exact[sample], initial=0.0)
        residual = float(np.max(gap, initial=0.0) / scale) if scale else 0.0
        out.setflags(write=False)  # kept with the mode set
        return out, residual


def _run(diag_index, off_index, most=None):
    """Length of the run of equal rows at the top of a band.

    The band's rows and couplings are given by their distinct-row indices;
    the run is the rows equal to the first whose couplings to the next
    row are all equal too, at most ``most`` (all rows but one by
    default). A run under ``_CONDENSE`` rows is not worth its closed
    form and reads 0.
    """
    rows = np.flatnonzero(diag_index != diag_index[0])
    couplings = np.flatnonzero(off_index != off_index[0])
    length = min(rows[0] if rows.size else diag_index.size,
                 couplings[0] if couplings.size else off_index.size,
                 diag_index.size - 1 if most is None else most)
    return length if length >= _CONDENSE else 0


def _spread(table, index):
    """The rows of a distinct-row table in band order, as a list of rows."""
    rows = list(table)
    return [rows[i] for i in index.tolist()]


def eigenvalue_count(system: GevpSystem, lam) -> np.ndarray:
    """Number of pencil eigenvalues omega^2 strictly below each lam >= 0.

    O(n_em) per value and no dense matrix: the Wittrick-Williams count of
    ``_Schur``. A lam exactly on a bin nu_q^2 is counted one ulp below it.
    """
    return _Schur.of(system).count_at(lam)


def _bisect(schur: _Schur, first, last, lam_lo, lam_hi):
    """Eigenvalues first..last-1, all in [lam_lo, lam_hi], as (anchor, delta).

    Every mode is bracketed at once with the count, which alone moves the
    bracket: a probe whose count exceeds the mode's index becomes its upper
    end, any other its lower end. Modes that share a bracket, as all do at
    first, form one group m0..m1-1 with one bracket, one probe history and
    one set of probes (Barth, Martin and Wilkinson, Numer. Math. 9, 1967,
    LAPACK's ``dstebz``). A probe's count c splits a group at clip(c, m0,
    m1): the modes below c move their upper end, the rest their lower end.
    A group keeps its members rather than reading them off the counts at
    its ends, so where the count is not monotone in lam every mode still
    moves as it would with a bracket of its own (Demmel, Dhillon and Ren,
    Parallel Comput. 21, 1995). Each round re-anchors the bracket at the
    bin nearest its midpoint, so the bracket ends are offsets from that
    bin, and a group stops once the offset itself is resolved to a few
    ulps (h - l <= 2 tol, tol = 2 eps max(|l|, |h|); not lam: that is what
    the near-dark modes need), or when its probes cannot split the
    bracket. All probes of a round share one pivot sweep; a probe repeated
    within a group is swept once (``_sweep_groups``).

    Until a mode is isolated (its group has one member and the count at
    its lower end is its index, at its upper end one more) a round is a
    bisection: P = min(_MULTISECTION, _PROBE_BUDGET // active) evenly
    spaced probes, active counting modes, not groups, the midpoint alone
    while many modes are active. From then on the probe is the step: the
    zero of c (x - z) / (x - p) through the last three (offset, last LDL^T
    pivot of S) pairs that moved an end of the bracket, taken if it falls
    strictly inside the bracket; otherwise a bisection round again. The
    last pivot vanishes at the mode but has a pole where the leading block
    of S is singular, for most modes close beside it (a median 7% of the
    gap to the next mode), which this form follows and a secant line does
    not (on 1A, 31,060 columns in 49 sweeps against 39,722 in 54). For
    some modes localized in the slab the pivot hardly changes sign at all,
    so the step only proposes the point; the count decides the side. Where
    steps still creep along one end of the bracket, a round that did not
    halve it adds a guard probe to the next step: one last correction
    further toward the far end, widened to tol, 2 tol, 4 tol, ... over the
    mode's guard rounds when the correction is smaller, and never past half
    way to the far end. When the step and its guard straddle the mode the
    bracket closes to the correction; when they do not, that round still
    halves it or the next guard reaches twice as far, so no mode creeps.
    ``tests/_dense_reference.per_mode_bisect`` carries one bracket per mode
    and gives the same brackets, bit for bit, in as many sweeps.
    """
    # one column per group of modes m0..m1-1 sharing a bracket [lo, hi]
    # about anchors[anchor], with the counts at both ends
    m0, m1 = np.array([first]), np.array([last])
    anchor = np.zeros(1, dtype=int)
    lo, hi = np.array([float(lam_lo)]), np.array([float(lam_hi)])
    count_lo, count_hi = m0.copy(), m1.copy()
    # the last three probe offsets that moved an end of each group's
    # bracket, oldest first, and the last pivot at each
    xs, fs = np.full((2, 3, 1), np.nan)
    halved = np.zeros(1, dtype=bool)
    guards = np.zeros(1)  # guard rounds spent so far
    closed = []  # (m0, m1, anchor, lo, hi) of the groups that stopped
    eps = np.finfo(float).eps
    while m0.size:
        new = schur.nearest(schur.anchors[anchor] + 0.5 * (lo + hi))
        shift = schur.anchors[anchor] - schur.anchors[new]
        l, h = lo + shift, hi + shift
        x = xs + shift  # the history, too
        with np.errstate(all="ignore"):
            # the zero of c (x - z) / (x - p) through the three pairs
            u0, u1 = x[0] - x[2], x[1] - x[2]
            step = x[2] + fs[2] * u0 * u1 * (fs[0] - fs[1]) / (
                u1 * fs[1] * (fs[0] - fs[2]) - u0 * fs[0] * (fs[1] - fs[2]))
        # a group of several holds count_lo <= m0 and count_hi >= m1
        stepping = ((count_lo == m0) & (count_hi == m0 + 1)
                    & (l < step) & (step < h))
        mid = 0.5 * (l + h)
        # what a bisection leaves, so a midpoint round always halves
        half = np.maximum(mid - l, h - mid)
        step = np.where(stepping, step, mid)  # keeps the guard below finite
        guard = stepping & ~halved
        far = np.where(step - l < h - step, h, l)
        # one last correction past the step, widened to tol, 2 tol, 4 tol,
        # ... over the mode's guard rounds (tol = 2 eps max(|lo|, |hi|), half
        # the stop rule's width), and never past half way to the far end
        tol = 2.0 * eps * np.maximum(np.abs(l), np.abs(h))
        reach = np.minimum(np.maximum(np.abs(step - x[2]), tol * 2.0**guards),
                           0.5 * np.abs(far - step))
        guards = guards + guard
        pair = np.stack(
            (step, np.where(guard, step + np.sign(far - step) * reach, step)))
        parts = max(1, min(_MULTISECTION,
                           _PROBE_BUDGET // int(np.sum(m1 - m0))))
        even = l + (h - l) * (np.arange(1, parts + 1) / (parts + 1))[:, None]
        # one row per probe; a group with fewer probes repeats its last
        rows = np.arange(max(2, parts))
        probes = np.where(stepping, pair[np.minimum(rows, 1)],
                          even[np.minimum(rows, parts - 1)])
        probes = np.where(probes == 0.0, 0.5 * h, probes)  # a bin is singular
        stuck = ~stepping & ~np.any((l < probes) & (probes < h), axis=0)
        counts, pivots = _sweep_groups(schur, new, probes)

        # the pieces of each group: its modes between consecutive distinct
        # clip(count, m0, m1) of its probes, m0 and m1, group by group
        cuts = np.sort(np.vstack((m0, np.clip(counts, m0, m1), m1)), axis=0)
        between = (cuts[1:] > cuts[:-1]).T
        group = np.nonzero(between)[0]
        m0, m1 = cuts[:-1].T[between], cuts[1:].T[between]
        l, h, c_lo, c_hi = l[group], h[group], count_lo[group], count_hi[group]
        x, f = x[:, group], fs[:, group]
        # each piece moves as its first mode would
        for probe, count, pivot in zip(probes[:, group], counts[:, group],
                                       pivots[:, group]):
            above = count > m0
            to_hi = above & (probe < h)
            to_lo = ~above & (probe > l)
            h, c_hi = np.where(to_hi, probe, h), np.where(to_hi, count, c_hi)
            l, c_lo = np.where(to_lo, probe, l), np.where(to_lo, count, c_lo)
            moved = to_hi | to_lo
            x = np.where(moved, np.vstack((x[1:], probe)), x)
            f = np.where(moved, np.vstack((f[1:], pivot)), f)
        halved = h - l <= half[group]
        guards, anchor = guards[group], new[group]
        done = stuck[group] | (
            h - l <= 4.0 * eps * np.maximum(np.abs(l), np.abs(h)))
        closed.append((m0[done], m1[done], anchor[done], l[done], h[done]))
        going = ~done
        m0, m1, anchor, lo, hi = (m0[going], m1[going], anchor[going],
                                  l[going], h[going])
        count_lo, count_hi = c_lo[going], c_hi[going]
        xs, fs = x[:, going], f[:, going]
        halved, guards = halved[going], guards[going]
    m0, m1, anchor, lo, hi = map(np.concatenate, zip(*closed))
    order = np.argsort(m0)
    anchor, lo, hi = (np.repeat(values[order], (m1 - m0)[order])
                      for values in (anchor, lo, hi))
    delta = 0.5 * (lo + hi)
    return anchor, np.where(delta == 0.0, hi, delta)


def _sweep_groups(schur: _Schur, anchor, probes):
    """(counts, last pivots) at each probe, probes[r, g] about anchor[g].

    One pivot sweep takes every probe; a probe that repeats the one in the
    row above it is swept once.
    """
    fresh = np.ones(probes.shape, dtype=bool)
    fresh[1:] = probes[1:] != probes[:-1]
    # columns group by group, so a repeat takes the slot of the probe above
    slot = (np.cumsum(fresh.T) - 1).reshape(probes.shape[::-1]).T
    counts, pivots = schur.sweep(np.repeat(anchor, np.sum(fresh, axis=0)),
                                 probes.T[fresh.T])
    return counts[slot], pivots[slot]


def diagonalize(system: GevpSystem, band=None) -> ModeSet:
    """Eigenmodes of the pencil (K, B) with omega in band, without K or B.

    band, when given, is an (omega_lo, omega_hi) pair restricting which
    eigenfrequencies are kept; None keeps the whole (positive) spectrum.
    Each kept eigenvalue lam = omega^2 is bracketed by the inertia count
    of ``_Schur`` and closed in by count-safeguarded rational steps with a
    guard probe, after bisection or multisection rounds (``_bisect``, one
    bracket per group of modes that share it), carried as an offset from
    its nearest bin. Intensities come from residues
    (``ModeSet.intensity_at``); vectors are built only for the modes
    closer than ``_CLUSTER_GAP`` to a neighbour and for ``_SAMPLE`` modes
    spread across the band. Two inverse-iteration steps
    on the Schur complement S(lam), from a start vector of its own per
    mode drawn from a Weyl sequence (``_start_vectors``: deterministic,
    no numpy.random), give their field part v; the oscillator part follows
    from the eliminated rows,
    y_eq = (1/2) sqrt(h_e) nu_q sqrt(w_q) (v_p + v_q) / (nu_q^2 - lam),
    and the pair is normalized in B (``_orthogonalize_clusters`` handles
    near-degenerate modes). The certificate ``normalization_residual`` is
    the largest deviation from B-orthonormality over the sample, computed
    with banded products and the rank-one structure of each y.
    ``count_sweeps`` tallies the pivot sweeps of the counts, band edges
    included: one per round of ``_bisect``, however many probes it holds
    (50 on the stock 1A band, 54 on 2A), each over the rows between the
    box's two wall runs. A pencil above the dof cap (``check_pencil``) and
    a band top without a finite square are refused (``InputError``).
    """
    check_pencil(system.mesh, system.bin_frequencies.size)
    schur = _Schur.of(system)
    lam_lo, lam_hi = 0.0, math.inf
    if band is not None:
        lo, hi = band
        if not lo < hi:
            raise ValueError(f"band must be (lo, hi) with lo < hi, got {band}")
        lam_hi = float(hi) * float(hi)
        if not math.isfinite(lam_hi):
            raise InputError("must have a finite square",
                             {"band top": float(hi)},
                             ("band top", f"< {2.0 ** 512!r}"))
        lam_lo = max(lo, 0.0) ** 2
    # past a bound that the count shows to lie above every mode, a band
    # top is cut to it: the pivots overflowed at lam = 1e200 on the stock
    # box, whose modes all lie below 3.1e7
    top = 2.0 * max(1.0, float(schur.anchors[-1]),
                    float(np.max(system.em_s_diag / system.em_m_diag)))
    if lam_hi > top:
        while schur.count_at(top)[0] < system.size:
            top *= 2.0
        lam_hi = min(lam_hi, top)
    first, last = schur.count_at([lam_lo, lam_hi])
    if last <= first:
        raise ValueError("no positive eigenfrequencies in the requested band")

    anchor, delta = _bisect(schur, first, last, lam_lo, lam_hi)
    lam = schur.anchors[anchor] + delta
    close = np.diff(lam) < _CLUSTER_GAP * np.maximum(np.abs(delta[1:]),
                                                     np.abs(delta[:-1]))
    picked = np.zeros(lam.size, dtype=bool)
    picked[:-1] |= close
    picked[1:] |= close
    clustered = picked.copy()
    (sample,), _, _ = unique_columns(
        np.linspace(0, lam.size - 1, min(lam.size, _SAMPLE)).astype(int)[None])
    picked[sample] = True
    picked = np.flatnonzero(picked)

    fields = np.zeros((picked.size, system.mesh.n_nodes))
    v = fields[:, 1:-1]  # field parts, filled in place
    # a start vector of its own per mode, so that modes of one cluster land
    # on different directions of its invariant subspace; modes go through
    # in blocks, so no (modes, n_em) band matrix is ever held whole
    dofs = np.arange(system.n_em)
    for start in range(0, picked.size, _MODE_BLOCK):
        block = picked[start:start + _MODE_BLOCK]
        diag, off = schur.matrices(anchor[block], delta[block])
        v[start:start + block.size] = inverse_iteration(
            diag, off, _start_vectors(block, dofs))

    p, q = system.slab_dof_pairs.T
    # y_m = slab_m (x) bins_m: one factor per slab element, one per bin
    slab = 0.5 * np.sqrt(system.slab_lengths) * (v[:, p] + v[:, q])
    bins = (system.bin_frequencies * np.sqrt(system.bin_weights)
            / schur.detune(anchor[picked], delta[picked]))
    bv = _mass_times(system, v)
    scale = 1.0 / np.sqrt(np.einsum("ij,ij->i", v, bv)
                          + np.sum(slab**2, axis=1) * np.sum(bins**2, axis=1))
    v *= scale[:, None]
    bv *= scale[:, None]
    slab *= scale[:, None]
    # every mode of a cluster is picked, so each run is consecutive rows
    runs = np.searchsorted(picked, np.flatnonzero(
        np.diff(np.concatenate(([0], close, [0])))))
    _orthogonalize_clusters(runs, v, bv, slab, bins)

    rows = np.searchsorted(picked, sample)
    gram = (v[rows] @ bv[rows].T
            + (slab[rows] @ slab[rows].T) * (bins[rows] @ bins[rows].T))
    residual = float(np.max(np.abs(gram - np.eye(rows.size))))
    return ModeSet(
        frequencies=np.sqrt(lam),
        vectors=fields,
        nodes=system.mesh.nodes.copy(),
        normalization_residual=residual,
        count_sweeps=schur.sweeps,
        vector_modes=picked,
        residues=_Residues(schur, anchor, delta, clustered[picked]),
    )


def _start_vectors(modes, dofs):
    """Inverse-iteration start vectors, one row per mode, in [-1/2, 1/2).

    A two-dimensional Weyl sequence (a mode + b dof) mod 1 - 1/2, with
    a = 1/g and b = 1/g^2 for the plastic number g (Roberts' R2 sequence):
    deterministic, different for every mode and every dof, and free of
    numpy.random. Each term is reduced mod 1 before the outer sum, which
    costs a tenth of reducing every entry.
    """
    start = np.add.outer(_WEYL[0] * modes % 1.0, _WEYL[1] * dofs % 1.0 - 0.5)
    return start - (start >= 0.5)


def _orthogonalize_clusters(runs, v, bv, slab, bins):
    """B-orthonormalize, in place, the rows of each cluster of modes.

    ``runs`` holds flattened (first, last) row pairs; rows first..last are
    modes closer than ``_CLUSTER_GAP`` to their neighbours. Inverse
    iteration cannot tell such modes apart when their spacing is far below
    their offset from the nearest bin (the small medium-1 reference box has
    a pair split by 1.2e-11 of it, left 4.6e-5 from orthogonal). Their
    vectors are Gram-Schmidt orthogonalized, twice, in the full pencil
    metric: mode k's oscillator part is linear in v_k at its own lam_k, so
    the B product of mode j with v is (B v_j).v + (slab_j.slab(v))
    (bins_j.bins_k), and removing c v_j from v_k makes the pair exactly
    B-orthogonal.
    """
    for first, last in zip(runs[::2], runs[1::2]):
        for k in range(first + 1, last + 1):
            for _ in range(2):
                for j in range(first, k):
                    overlap = bins[j] @ bins[k]
                    c = (bv[j] @ v[k] + overlap * (slab[j] @ slab[k])) / (
                        bv[j] @ v[j] + overlap * (slab[j] @ slab[j]))
                    v[k] -= c * v[j]
                    bv[k] -= c * bv[j]
                    slab[k] -= c * slab[j]
            scale = 1.0 / np.sqrt(bv[k] @ v[k]
                                  + (slab[k] @ slab[k]) * (bins[k] @ bins[k]))
            v[k] *= scale
            bv[k] *= scale
            slab[k] *= scale


def _mass_times(system: GevpSystem, v):
    """B_em applied to every row of v (banded product)."""
    out = v * system.em_m_diag
    out[:, :-1] += v[:, 1:] * system.em_m_off
    out[:, 1:] += v[:, :-1] * system.em_m_off
    return out


def check_eta(eta: float):
    """Refuse a window eta that is not > 0 with a finite square, which the
    Lorentzian of ``ser_modes`` takes (``InputError``)."""
    if not (eta > 0 and math.isfinite(float(eta) * float(eta))):
        raise InputError(
            "must have a finite square" if eta > 0 else "is not > 0",
            {"eta": float(eta)}, ("eta", "> 0 with a finite square"))


def ser_modes(modes: ModeSet, x_a: float, omega_a: float, eta: float):
    """Lorentzian-smoothed emission rate at (x_a, omega_a).

    Gamma = sum_m eta * omega_m * |E_m(x_a)|^2 / ((omega_a - omega_m)^2
    + eta^2). The window eta must be at least twice the local mode
    spacing, otherwise the sum resolves individual modes instead of a
    rate and the result is meaningless.
    """
    if omega_a <= 0:
        raise ValueError(f"omega_a must be > 0, got {omega_a}")
    check_eta(eta)
    spacing = modes.spacing_near(omega_a)
    if eta < 2.0 * spacing:
        raise ValueError(
            f"eta = {eta} is below twice the local mode spacing "
            f"({spacing:.4g}); widen eta or enlarge the box"
        )
    # each term adds (omega_a - omega_m)^2, at most reach^2, to eta^2
    reach = max(omega_a, float(modes.frequencies[-1]))
    if not math.isfinite(reach * reach + eta * eta):
        raise ValueError(f"omega_a = {omega_a} and eta = {eta} overflow "
                         "the Lorentzian")
    lorentz = eta / ((omega_a - modes.frequencies) ** 2 + eta**2)
    return float(np.sum(modes.frequencies * modes.intensity_at(x_a)
                        * lorentz))


def purcell_from_modes(modes: ModeSet, x_a: float, omega_a: float,
                       eta: float):
    """Emission rate from ``ser_modes`` over the free-space rate omega_a."""
    return ser_modes(modes, x_a, omega_a, eta) / omega_a


def gevp_mesh(medium: MediumSpec, bath: BathConfig, k_max: float = 1000.0,
              points_per_wavelength: float = 10.0) -> Mesh1D:
    """Closed-box mesh for the eigenmode route (10 points per wavelength).

    Both atom sites land on nodes so rates can be sampled there directly.
    """
    return build_box_mesh(
        medium,
        k_max,
        points_per_wavelength,
        bath.box_length,
        observation_points=(ATOM_INSIDE, ATOM_OUTSIDE),
    )
