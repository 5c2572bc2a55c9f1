"""P1 finite elements for the 1D Helmholtz operator.

Weak form with homogeneous Dirichlet walls:

    S[u, v] = int u' v' dx                (gradient / stiffness part)
    M[u, v] = int eps_r u v dx            (value / mass part)
    L = S - k^2 M

On an open mesh (``Mesh1D.is_open``) the vacuum lattice continues past
each wall. Its outgoing solution is u_{j} = rho^{|j - j_0|} u_{j_0} beyond
the last physical node j_0, with rho = e^{i kt h}, kt the lattice
wavenumber (``lattice_wavenumber``) and h the length of the boundary
element. Eliminating that semi-infinite chain exactly adds b rho to the
diagonal of S at j_0, where b = -k_e - k^2 m_off is the boundary element's
off-diagonal: the lattice's exact Dirichlet-to-Neumann condition
(Engquist and Majda, Math. Comp. 31, 1977, for the continuum; Givoli,
J. Comput. Phys. 94, 1991, for finite elements). Im S then lives on those
two nodes only, and it is the radiation channel of the operator
identities in ``identities``.

Both matrices are complex symmetric (not Hermitian) tridiagonal; this
symmetry, not any Hermiticity, is what the operator identities in
``identities`` rely on, so nothing here may conjugate matrix entries.
Element integrals use a fixed 4-point Gauss-Legendre rule, which is exact
for the P1 products appearing here; ``StaticBands`` is the only place that
rule is applied. ``kept`` keeps work with its mesh, one entry per slot,
replaced when its key changes and freed with the mesh: the k-independent
bands (``static_bands``, one per mesh whatever the medium), the node of
the last point asked (``node_of``) and the LU of the last (medium, k)
(``factorization``, the one place an LU is built for a solve), so all
solves at one frequency share it and no caller passes one around.
``pivot_sweep`` (an inertia count that also returns the last LDL^T pivot),
``uniform_sweep`` (the same over a run of equal rows, in closed form),
``twisted_residues`` (the weight of one row in every null vector, from a
forward and a backward pivot sweep differentiated in lam) and
``inverse_iteration`` are the real symmetric tridiagonal kernels of the
eigenmode route; ``inverse_iteration`` and the LU are the only LAPACK
calls in the package, LAPACK's ``?gttrf``/``?gttrs`` from scipy's compiled
``_flapack``, loaded without importing ``scipy.linalg``
(``_load_flapack``). f2py copies every array it may not overwrite: the LU
factors copies of a system's read-only bands, and ``Factorization.solve``,
the one solve of the package, overwrites a block its caller owns: no copy
in or out.

The consistent mass matrix is kept as-is (no lumping or blending): on a
uniform vacuum mesh the rows are 2/h, -1/h and 2h/3, h/6.

With eps_r = 1 + chi(k) on the slab elements, placed by the mesh
(``Mesh1D.slab_elements``), the mass splits as

    M = M_0 + chi(k) M_slab,

and only the scalar chi(k) and the two boundary terms vary with k. None
of the rest depends on the medium, so ``static_bands`` builds it once per
mesh: the two mass bands M_0 and M_slab and the stiffness bands. Per
frequency, ``assemble`` evaluates chi(k) once, adds chi M_slab over the
slab's nodes only and b rho on the two ports only (each an exact zero
elsewhere), and refuses a medium whose slab half-length is not the
mesh's: one chi, one kt per length class, O(n) band arithmetic, one LU
and no quadrature per frequency.

There is one object per frequency, ``SystemMatrices``, and one way to
its LU. ``assemble`` takes a wavenumber or a block of them (an array) and
forms, in one array pass, every band that depends on k, one row per k of
a block (a scalar k runs the same statements on bands without the row
axis): S and M, the interior bands of L and their scale, the lattice wave
w on the slab's nodes and M_slab w there, from which the LU forms either
direction's load (M_slab is real, so the -x load is the conjugate
product's). It hands out one read-only system per k, views of the
block's rows. ``Factorization`` factors one system (``gttrf``, with the
singular-pivot test) and leaves it as assembled, so a system may be
factored again. A sweep hands each system of a block to
``factorization`` one k at a time (``BLOCK_BYTES`` sizes the blocks,
``block_size``); every other caller asks ``factorization`` for one k,
which it assembles alone. Numeric contract: every system of a block, and
the LU and loads built from it, is bitwise what its k assembled alone
gives. chi(k), k^2 and k^2 chi(k) are Python scalars per k, checked and
formed before any band, since numpy's square and a Python square may
round apart; every array operation is elementwise along the rows, and
theta(0) is read with np.interp row by row.

On an open mesh the same phase steps kt h give the vacuum lattice's own
plane wave, the wave the scattering states are driven by: its nodal phase
theta advances by kt h across each element, with theta(0) = 0, and L_vac
annihilates e^{i theta}. ``assemble`` takes theta from the steps that set
rho, so the wave and the outgoing boundary share one dispersion relation
and kt = k would change this module alone. ``SystemMatrices.phase``
carries theta, and the LU keeps it (``Factorization.phase``) with the
wave's values on the slab's nodes, which both directions of a frequency
read (``Factorization.wave``). Past the ports both lattice waves, the
outgoing one and the incident one, continue at the walls' kt h, which
``lattice_hops`` carries out to any point there: an open mesh needs no
vacuum beyond the slab and the points it is read at. A closed box has no
such wave: its walls reflect whatever the slab scatters, so an incident
wave plus its response is not a scattering state there. It is assembled
and factored at any k, for the identity checks and the eigenmode route,
with no phase.

The slab's law stays here. Every other module asks the operator about
the slab in terms of L - L_vac, where L_vac is the operator of the same
mesh with an empty slab, and never reads chi(k) or M_slab:
``Factorization.incident_load`` gives the load (L_vac - L) w of the
lattice wave w and ``Factorization.slab_loss`` the slab's loss -v^H
Im(L - L_vac) u between two fields, both over the slab's nodes only, and
``SystemMatrices.loss_interior`` the bands of -Im(L - L_vac). On P1 these
are k^2 chi M_slab w, k^2 chi_I v^H M_slab u and k^2 Im M.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
import weakref
from dataclasses import dataclass

import numpy as np

from .medium import MediumSpec
from .mesh import Mesh1D

# the 4-point Gauss-Legendre rule, numpy.polynomial.legendre.leggauss(4) to
# the last bit, written out so that importing fem loads no numpy.polynomial
GAUSS_NODES = np.array([-0.8611363115940526, -0.33998104358485626,
                        0.33998104358485626, 0.8611363115940526])
GAUSS_WEIGHTS = np.array([0.34785484513745357, 0.6521451548625464,
                          0.6521451548625464, 0.34785484513745357])
_SHAPE_LO = 0.5 * (1.0 - GAUSS_NODES)  # hat falling across the element
_SHAPE_HI = 0.5 * (1.0 + GAUSS_NODES)  # hat rising across the element

# the identity checks refuse systems above this many dofs: they solve for
# every column of G, O(n^2) time, though only a block of columns is held
DEFAULT_DOF_CAP = 4000

# a block of frequencies (``assemble`` with an array of k) holds about this
# many bytes while it is assembled; ``block_size`` sizes a sweep's blocks by
# it. Blocks pay off where per-call overhead outweighs the O(n) work: 7
# frequencies of the 423-node stock mesh (ppw 40) per block, while the
# 1,677-node one (ppw 160), on which a block of two measured no faster,
# runs one at a time
BLOCK_BYTES = 384 * 1024
# what one frequency of a block holds per mesh node: its mass and stiffness
# bands, theta and the interior bands of L, with their temporaries
_BLOCK_BYTES_PER_NODE = 128

# pivot_sweep counts sign bits once per this many rows; their sum per
# column is kept in a uint8, so this must stay <= 255
_SWEEP_BLOCK = 64

# owner -> {slot: (key, value)}, the entries of ``kept``
_KEPT = weakref.WeakKeyDictionary()


def kept(owner, slot: str, key, build):
    """The value ``build()`` made for ``key``, kept in ``slot`` of ``owner``.

    One (key, value) entry per slot: an equal key returns the kept value,
    any other drops the entry, freeing its value before ``build`` runs, and
    stores the new one; a ``build`` that raises leaves the slot empty. The
    entries die with their owner, so a value must not refer to it.
    """
    slots = _KEPT.get(owner)
    if slots is None:
        slots = _KEPT[owner] = {}
    entry = slots.get(slot)
    if entry is not None and entry[0] == key:
        return entry[1]
    del entry  # with the pop, frees the old value before the build
    slots.pop(slot, None)
    value = build()
    slots[slot] = (key, value)
    return value


def _load_flapack():
    """scipy's compiled f2py LAPACK wrapper, without importing scipy.linalg.

    ``find_spec`` locates the scipy package without running its
    ``__init__``; the extension is then loaded from ``linalg/`` like any
    other, under this package's name, so ``scipy.linalg`` never enters
    ``sys.modules``. A scipy that moves the file fails this import.
    """
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError("slabqed needs scipy for its LAPACK wrapper")
    (scipy_dir,) = scipy_spec.submodule_search_locations
    finder = importlib.machinery.FileFinder(
        os.path.join(scipy_dir, "linalg"),
        (importlib.machinery.ExtensionFileLoader,
         importlib.machinery.EXTENSION_SUFFIXES),
    )
    spec = finder.find_spec(f"{__package__}._flapack")
    if spec is None:
        raise ImportError(f"no _flapack extension under {scipy_dir}/linalg")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_FLAPACK = _load_flapack()


@functools.cache
def _tridiagonal_kernels(dtype):
    """LAPACK (gttrf, gttrs) for double bands: z if complex, else d."""
    prefix = "z" if dtype.kind == "c" else "d"
    return (getattr(_FLAPACK, f"{prefix}gttrf"),
            getattr(_FLAPACK, f"{prefix}gttrs"))


class SingularOperatorError(RuntimeError):
    """Raised when L = S - k^2 M is (numerically) singular at this k."""


def lattice_wavenumber(k: float, h):
    """Wavenumber of the discrete vacuum plane wave on a uniform P1 mesh.

    The interior stencil of S - k^2 M annihilates e^{i kt j h} when

        cos(kt h) = (1 - (kh)^2/3) / (1 + (kh)^2/6),

    i.e. the mesh carries waves at kt = k (1 - (kh)^2/24 + ...) rather than
    at k itself. Wave-amplitude extraction has to use kt, otherwise the
    extracted coefficients pick up a spurious phase (kt - k) d that grows
    with the distance d carried and swamps the actual discretization error.
    A scalar h gives a float, an array of spacings one kt per entry; an
    array of k broadcasts against h.
    The half-angle form sin(kt h / 2) = (kh/2) / sqrt(1 + (kh)^2/6) is used:
    arccos of the cosine above loses half the digits of kt h as kh -> 0
    (2e-10 relative at kh ~ 1e-3), and the phase step of the outgoing
    boundary, e^{i kt h}, carries the radiation loss.
    """
    h = np.asarray(h, dtype=float)
    z = k * h
    half_sine = 0.5 * z / np.sqrt(1.0 + z**2 / 6.0)
    if half_sine.max() >= 1.0:
        k_first = np.broadcast_to(k, z.shape)[half_sine >= 1.0][0]
        raise ValueError(
            f"no propagating lattice wave at k = {float(k_first)} with "
            f"spacing h = {np.max(h)}"
        )
    kt = 2.0 * np.arcsin(half_sine) / h
    return float(kt) if kt.ndim == 0 else kt


# the ports of an open mesh, the nodes next to its walls, and its two wall
# elements
_PORTS = np.array([1, -2])
_WALL_ELEMENTS = np.array([0, -1])


@dataclass(frozen=True, eq=False)
class SystemMatrices:
    """One frequency's operator: its bands over all nodes, walls included,
    and what its LU reads.

    ``s_diag/s_off`` and ``m_diag/m_off`` are the stiffness and mass bands;
    ``off[i]`` couples node i to node i+1. ``l_diag/l_off`` are the
    interior (Dirichlet-reduced) bands of L = S - k^2 M, which the LU
    factors, and ``scale`` max|L_ij| over them, the scale of its
    singular-pivot test. ``chi`` is the slab susceptibility chi(k) the
    bands were assembled with and ``slab_term`` k^2 chi(k), by which the
    slab enters L_vac - L = k^2 chi(k) M_slab. On an open mesh ``phase`` is
    the nodal phase theta of the vacuum lattice's plane wave at this k,
    ``slab_wave`` its values w = e^{i theta} on ``slab_nodes`` and
    ``slab_mass_wave`` M_slab w there, from which the LU forms each
    direction's load (all None on a closed box, which has no incident wave
    at any k). Every band is read-only, so a system may be factored any
    number of times and read afterwards; the systems of a block are views
    of the block's arrays. Systems compare by identity: equal bands do not
    make two systems equal.
    """

    mesh: Mesh1D
    k: float
    chi: complex
    s_diag: np.ndarray
    s_off: np.ndarray
    m_diag: np.ndarray
    m_off: np.ndarray
    l_diag: np.ndarray
    l_off: np.ndarray
    scale: float
    slab_term: complex
    phase: np.ndarray | None = None
    slab_wave: np.ndarray | None = None
    slab_mass_wave: np.ndarray | None = None

    @property
    def n_interior(self) -> int:
        return self.mesh.n_interior

    def stiffness_interior(self):
        return self.s_diag[1:-1], self.s_off[1:-1]

    def loss_interior(self):
        """Real bands of -Im(L - L_vac) on the interior nodes, the loss the
        slab adds to the operator: k^2 Im M on P1, zero in vacuum."""
        k2 = self.k**2
        return k2 * self.m_diag[1:-1].imag, k2 * self.m_off[1:-1].imag


def _gauss_sum(values):
    """Sum over the last axis, the 4 Gauss points, as (v0 + v1) + (v2 + v3).

    The order numpy uses for complex sums, so the vacuum bands, now summed
    in real arithmetic, keep the last bit they had when summed as complex.
    """
    return ((values[..., 0] + values[..., 1])
            + (values[..., 2] + values[..., 3]))


def _mass_bands(half, weight):
    """Bands of int weight N_a N_b dx, ``weight`` given per Gauss point.

    Summed in real arithmetic and returned complex.
    """
    common = weight * GAUSS_WEIGHTS * half
    m_lo = _gauss_sum(common * _SHAPE_LO**2)
    m_hi = _gauss_sum(common * _SHAPE_HI**2)
    diag = np.zeros(m_lo.size + 1)
    diag[:-1] += m_lo
    diag[1:] += m_hi
    off = _gauss_sum(common * _SHAPE_LO * _SHAPE_HI)
    return _read_only(diag.astype(complex)), _read_only(off.astype(complex))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class StaticBands:
    """The k-independent parts of the operator on one mesh.

    ``m0_*`` is the vacuum mass, ``slab_*`` the mass over the mesh's slab
    elements and ``s_*`` the stiffness: k_e[j-1] + k_e[j] on the diagonal
    (one k_e at a wall) and -k_e off it, k_e the element stiffness. All
    are complex, as is every band and load they enter, so no operation on
    them casts. M_slab has all its nonzeros on the mesh's ``slab_nodes``.
    ``per_k_bands`` stacks the bands ``assemble`` copies per k, M_0's
    diagonal and off-diagonal (padded with a zero to n entries) and S's
    diagonal; ``slab_mass`` holds M_slab's diagonal over ``slab_nodes``
    and its off-diagonal over ``slab_elements``, all its nonzeros;
    ``wall_off`` holds the real stiffness and vacuum mass
    off-diagonals of the two wall elements, which the outgoing boundary
    reads. Holds arrays and slices only, not the mesh, so a copy kept for
    a mesh dies with it.
    """

    def __init__(self, mesh: Mesh1D):
        half = 0.5 * mesh.element_lengths[:, None]
        on_slab = np.zeros_like(half)
        on_slab[mesh.slab_elements] = 1.0
        # hat slopes are constant +-1/h, so the element stiffness is
        # k_e * [[1, -1], [-1, 1]] with k_e = (1/2h) sum w
        k_e = (_gauss_sum(GAUSS_WEIGHTS)
               / (2.0 * mesh.element_lengths)).astype(complex)
        s_diag = np.zeros(mesh.n_nodes, dtype=complex)
        s_diag[:-1] += k_e
        s_diag[1:] += k_e
        # each band that varies with k is a row of a stack, the
        # off-diagonal padded with a zero to n entries, so one copy per k
        # takes them all
        per_k = np.zeros((3, mesh.n_nodes), dtype=complex)
        per_k[0], per_k[1, :-1] = _mass_bands(half, 1.0)
        per_k[2] = s_diag
        self.per_k_bands = _read_only(per_k)
        self.m0_diag, self.m0_off, self.s_diag = per_k[0], per_k[1, :-1], per_k[2]
        self.slab_diag, self.slab_off = _mass_bands(half, on_slab)
        self.slab_mass = (self.slab_diag[mesh.slab_nodes],
                          self.slab_off[mesh.slab_elements])
        self.s_off = _read_only(-k_e)
        self.slab_nodes = mesh.slab_nodes
        self.wall_off = (self.s_off.real[_WALL_ELEMENTS],
                         self.m0_off.real[_WALL_ELEMENTS])


def static_bands(mesh: Mesh1D) -> StaticBands:
    """The k-independent bands of ``mesh``, built once and kept with it."""
    return kept(mesh, "static_bands", None, lambda: StaticBands(mesh))


def node_of(mesh: Mesh1D, x: float) -> int:
    """``mesh.find_node(x)``, kept with the mesh for the last x asked.

    The routes read the atom's node at every frequency, so a sweep
    bisects the nodes once.
    """
    return kept(mesh, "node", x, lambda: mesh.find_node(x))


def _susceptibility(mesh: Mesh1D, medium: MediumSpec, k: float) -> complex:
    """chi(k) as a Python complex, after the checks ``assemble`` makes of
    k and the medium: a finite k > 0, the mesh's slab, and a finite
    chi(k)."""
    if not 0 < k < math.inf:
        raise ValueError(f"k must be finite and > 0, got {k}")
    if medium.slab_half_length != mesh.slab_half_length:
        raise ValueError(
            f"the medium's slab half-length {medium.slab_half_length} is not "
            f"the mesh's {mesh.slab_half_length}"
        )
    # a pole of chi is refused before numpy divides by zero and warns
    chi = np.nan if medium.pole_at(k) else complex(medium.susceptibility(k))
    if not (math.isfinite(chi.real) and math.isfinite(chi.imag)):
        raise ValueError(
            f"chi(k) is not finite at k = {k}: a lossless slab "
            f"(gamma = 0) has no permittivity at its resonance omega_0"
        )
    return chi


def _slab_product(static: StaticBands, values) -> np.ndarray:
    """M_slab w on ``slab_nodes``, for the values of w there (one row per
    leading index)."""
    diag, off = static.slab_mass
    product = diag * values
    product[..., :-1] += off * values[..., 1:]
    product[..., 1:] += off * values[..., :-1]
    return product


def assemble(mesh: Mesh1D, medium: MediumSpec, k):
    """Assemble the operator of wavenumber k, or of each k of a block.

    Parameters
    ----------
    mesh : Mesh1D
    medium : MediumSpec
        Supplies chi(k); its slab must be the mesh's, which places it.
    k : float or 1-D array of floats
        Wavenumber; enters through eps_r dispersion and, on an open mesh,
        the outgoing condition at the two boundary elements. An array is a
        block of frequencies.

    A block is formed in one array pass, every band that depends on k
    holding one row per k, and each of its systems is a view of one row;
    a scalar k runs the same statements on bands without the row axis.
    Each k is checked and its chi(k), k^2 and k^2 chi(k) formed as Python
    scalars before any band, and every array operation is elementwise
    along the rows, so each system of a block is bitwise what its k gives
    alone.

    Returns
    -------
    SystemMatrices for a scalar k, else a list of them, one per k in order
    """
    ks = np.asarray(k, dtype=float)
    if ks.ndim > 1:
        raise ValueError(f"k must be a scalar or 1-D, got shape {ks.shape}")
    wavenumbers = ks.ravel().tolist()
    chis = [_susceptibility(mesh, medium, k) for k in wavenumbers]
    # k^2 and chi(k) per k, shaped to broadcast along the nodes: a column
    # for a block, a scalar for a scalar k
    columns = np.array([[k**2 for k in wavenumbers], chis], dtype=complex)
    columns = columns.reshape((2,) + ks.shape + (1,) * ks.ndim)
    k2, chi = columns[0], columns[1]
    static = static_bands(mesh)
    # a writable copy of the bands that vary with k, per k of a block.
    # M_slab is an exact zero off its nodes and b rho off the two ports:
    # adding each over its own nodes only leaves every band entry bitwise
    # as a sum over all n would
    per_k = np.empty(ks.shape + static.per_k_bands.shape, dtype=complex)
    per_k[...] = static.per_k_bands
    m_diag, m_off = per_k[..., 0, :], per_k[..., 1, :-1]
    s_diag = per_k[..., 2, :]
    slab_diag, slab_off = static.slab_mass
    m_diag[..., mesh.slab_nodes] += chi * slab_diag
    m_off[..., mesh.slab_elements] += chi * slab_off
    waves = []
    if mesh.is_open:
        # the phase kt h the lattice wave advances across each element, kt
        # found once per distinct element length
        lengths, classes = mesh.length_classes
        steps = (lattice_wavenumber(ks[..., None], lengths)
                 * lengths).take(classes, axis=-1)
        phase = np.zeros(ks.shape + (mesh.n_nodes,))
        np.add.accumulate(steps, axis=-1, out=phase[..., 1:])
        # theta(0) = 0, the oracle's absolute phase
        for theta in phase.reshape(-1, mesh.n_nodes):
            theta -= np.interp(0.0, mesh.nodes, theta)
        # the vacuum lattice beyond each wall carries u_1 rho^j outward:
        # eliminating it adds b rho to the last physical node's diagonal,
        # rho from the kt the lattice wave advances by
        stiffness, mass = static.wall_off
        b = stiffness - k2.real * mass
        s_diag[..., _PORTS] += b * np.exp(
            1j * steps.take(_WALL_ELEMENTS, axis=-1))
        wave = np.exp(1j * phase[..., static.slab_nodes])
        waves = [phase, wave, _slab_product(static, wave)]
    # the interior bands of L, views of one array that holds each row's
    # diagonal and then its off-diagonal, so one pass reads max|L_ij|
    n = mesh.n_interior
    both = np.empty(ks.shape + (2 * n - 1,), dtype=complex)
    l_diag, l_off = both[..., :n], both[..., n:]
    np.multiply(k2, m_diag[..., 1:-1], out=l_diag)
    np.multiply(k2, m_off[..., 1:-1], out=l_off)
    np.subtract(s_diag[..., 1:-1], l_diag, out=l_diag)
    np.subtract(static.s_off[1:-1], l_off, out=l_off)
    scales = np.abs(both).max(axis=-1)
    # a view taken of a writable array stays writable: each band a system
    # takes its row of is made read-only itself
    for band in (s_diag, m_diag, m_off, l_diag, l_off, *waves):
        _read_only(band)
    # each k's index into the rows: () for a scalar k, (i,) in a block.
    # The fields go by position, in their order: by keyword, a block's
    # systems measured ~4 us per k slower to form (~10% at 283 nodes)
    at = itertools.product(*map(range, ks.shape))
    systems = [SystemMatrices(mesh, k, chi, s_diag[i], static.s_off,
                              m_diag[i], m_off[i], l_diag[i], l_off[i],
                              scales[i], k**2 * chi,
                              *[band[i] for band in waves])
               for i, k, chi in zip(at, wavenumbers, chis)]
    return systems if ks.ndim else systems[0]


# what the LU of a closed box says when asked for a scattering state
_NO_WAVE = ("a closed box has no scattering states: its walls reflect what "
            "the slab scatters")


class Factorization:
    """LU factors of the interior operator, reusable across right-hand sides,
    the operator's slab term, which the loads and rates read, and, on an
    open mesh, the lattice wave the scattering states are driven by.

    Built from one frequency's ``SystemMatrices``, which it leaves as
    assembled: f2py copies the read-only bands of L that gttrf factors.
    Holds the factors, k, the scalar k^2 chi(k) by which the slab enters
    L_vac - L = k^2 chi(k) M_slab, the wave's nodal phase theta
    (``phase``, read-only, None on a closed box), the wave's values w on
    the slab's nodes and M_slab w there, and the k-independent bands
    (``static_bands``, arrays and slices only), not the system or its
    mesh, so an LU kept for a mesh by ``factorization`` is freed together
    with that mesh. L_vac is the operator of the same mesh with an empty
    slab: the two differ on ``slab_nodes`` alone.
    """

    def __init__(self, system: SystemMatrices):
        self.n_interior = system.n_interior
        self.k = system.k
        self.phase = system.phase
        self._slab_term = system.slab_term
        self._static = static_bands(system.mesh)
        gttrf, gttrs = _tridiagonal_kernels(system.l_diag.dtype)
        dl, d, du, du2, ipiv, info = gttrf(system.l_off, system.l_diag,
                                           system.l_off)
        if info > 0 or np.abs(d).min() < 1e-14 * system.scale:
            raise SingularOperatorError(
                f"operator is singular at k = {system.k}: "
                "the frequency coincides with a discrete resonance"
                + self._slab_scale_note(system)
            )
        if info < 0:
            raise RuntimeError(f"gttrf failed with info = {info}")
        self._factors = (dl, d, du, du2, ipiv)
        self._gttrs = gttrs
        # the +x values both directions read
        self._slab_wave = system.slab_wave
        self._slab_mass_wave = system.slab_mass_wave

    def _slab_scale_note(self, system: SystemMatrices) -> str:
        """Why the pivot test may have tripped, when the slab rows set the
        scale it is relative to: k^2 chi(k) and the contrast of the largest
        entry with the largest entry of L_vac; otherwise nothing."""
        k2, static = self.k**2, self._static
        vacuum = max(np.abs(band[1:-1]).max() for band in (
            system.s_diag - k2 * static.m0_diag,
            static.s_off - k2 * static.m0_off))
        scale = system.scale
        return "" if scale <= vacuum else (
            f"; the slab rows set the pivot test's scale: k^2 chi(k) = "
            f"{self._slab_term:.3e}, the largest entry {scale / vacuum:.3e} "
            f"times the largest vacuum entry")

    def wave(self, nodes, direction: int = +1):
        """The unit lattice plane wave e^{i d theta} at ``nodes`` (an
        index, a slice or an index array).

        d = +1 travels toward +x; -1, its complex conjugate, toward -x.
        The values are formed only at the nodes read, except on
        ``slab_nodes``, where the LU keeps them, read-only, so both
        directions of one frequency share one ``exp``. A closed box has
        no incident wave and is refused.
        """
        if self.phase is None:
            raise ValueError(_NO_WAVE)
        if isinstance(nodes, slice) and nodes == self._static.slab_nodes:
            values = self._slab_wave
        else:
            values = np.exp(1j * self.phase[nodes])
        return values if direction > 0 else values.conj()

    def incident_load(self, direction: int) -> np.ndarray:
        """(L_vac - L) w for the unit lattice wave w toward ``direction``
        (``wave``): the load of that scattering state.

        One value per mesh node, exactly zero outside ``slab_nodes`` and
        fresh, so a solve may overwrite it: on P1 the band product k^2 chi
        M_slab w, the consistent load of the P1 wave over the slab, from
        the M_slab w the LU keeps, conjugated toward -x (M_slab is real, so
        that is M_slab conj(w) to the sign of a zero). A closed box, which
        has no wave and so no loads, is refused.
        """
        if self._slab_mass_wave is None:
            raise ValueError(_NO_WAVE)
        product = self._slab_mass_wave
        f = np.zeros(self.n_interior + 2, dtype=complex)
        # scale first: numpy's complex multiply is not bitwise commutative
        np.multiply(self._slab_term,
                    product if direction > 0 else product.conj(),
                    out=f[self._static.slab_nodes])
        return f

    def slab_loss(self, u, v) -> complex:
        """-v^H Im(L - L_vac) u, for the values of u and v on ``slab_nodes``.

        The loss the slab adds to the operator, between two fields: on P1
        k^2 chi_I v^H M_slab u, the element rule's k^2 chi_I int_slab
        u conj(v) dx to round-off; 0 without a slab.
        """
        return self._slab_term.imag * complex(
            np.vdot(v, _slab_product(self._static, u)))

    def solve(self, block: np.ndarray) -> np.ndarray:
        """Overwrite ``block`` with L^{-1} block and return it; interior rows.

        ``block`` is (n,) or (n, m), complex, writable and Fortran-ordered,
        so gttrs works on it directly: no copy in or out, no wall rows.
        """
        if (block.ndim not in (1, 2) or block.shape[0] != self.n_interior
                or block.dtype != complex or not block.flags.f_contiguous
                or not block.flags.writeable):
            raise ValueError(
                f"rhs must be writable, Fortran-ordered, complex and have "
                f"{self.n_interior} rows, got {block.dtype} {block.shape}")
        if block.size == 0:
            return block  # gttrs on zero columns corrupts the heap
        dl, d, du, du2, ipiv = self._factors
        x, info = self._gttrs(dl, d, du, du2, ipiv, block, overwrite_b=1)
        if info != 0:
            raise RuntimeError(f"gttrs failed with info = {info}")
        return x


def block_size(mesh: Mesh1D) -> int:
    """How many frequencies a sweep assembles at once on ``mesh``: as many
    as ``BLOCK_BYTES`` takes, at least one."""
    return max(1, BLOCK_BYTES // (_BLOCK_BYTES_PER_NODE * mesh.n_nodes))


def factorization(mesh: Mesh1D, medium: MediumSpec, k: float,
                  system: SystemMatrices | None = None) -> Factorization:
    """The LU of L = S - k^2 M for (mesh, medium, k).

    Every solve at one frequency reuses it: the mesh keeps the LU of the
    last (medium, k) solved on it, and the old LU is freed before the new
    one is built, from ``system``, k's system in a block, if given, else
    from k's operator assembled alone. One slot per mesh suits a serial
    frequency loop; solves of two frequencies on one mesh interleaved
    would refactorize each time.
    """
    return kept(mesh, "factorization", (medium, k), lambda: Factorization(
        assemble(mesh, medium, k) if system is None else system))


def pivot_sweep(diag, off2):
    """Negative LDL^T pivots and the last pivot of every column, in one sweep.

    ``diag`` is a sequence of n rows and ``off2`` of n - 1 rows, each an
    array of m entries: the diagonal and the squared off-diagonal, column j
    of them being one real symmetric tridiagonal. A row array may appear
    any number of times. By Sylvester's law of inertia the negative count
    is the number of negative eigenvalues. A zero pivot counts by its sign
    bit and makes the next one infinite with the opposite sign, so the pair
    counts once, as it would with the zero nudged either way.

    The sweep is a Python loop over rows: ~0.2 ms of per-row ufunc
    overhead for the 151 rows the eigenmode route sweeps between its box's
    walls (``uniform_sweep`` takes the walls), plus ~0.4 us per column.
    Each row's pivot is written in place into a (``_SWEEP_BLOCK``, m)
    buffer by two ufuncs (quotient, then difference), and the sign bits
    are counted once per block of rows rather than once per row, summed as
    bytes (a third of the time of ``count_nonzero`` on a 64 x 2,000
    block). The arithmetic is that of the plain recurrence, so the counts
    and pivots are bitwise its own. Returns (negative counts, last
    pivots).
    """
    pivot = np.array(diag[0], dtype=float)
    negative = np.signbit(pivot).astype(np.intp)
    block = np.empty((min(_SWEEP_BLOCK, len(diag) - 1),) + pivot.shape)
    slots = list(block)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(1, len(diag), _SWEEP_BLOCK):
            rows = zip(slots, diag[start:start + _SWEEP_BLOCK],
                       off2[start - 1:start - 1 + _SWEEP_BLOCK])
            for out, row, coupling in rows:
                np.divide(coupling, pivot, out=out)
                np.subtract(row, out, out=out)
                pivot = out
            used = min(_SWEEP_BLOCK, len(diag) - start)
            negative += np.signbit(block[:used]).view(np.uint8).sum(
                axis=0, dtype=np.uint8)
    return negative, pivot.copy()


def uniform_sweep(diag, off, count: int, pivot):
    """``pivot_sweep`` over ``count`` equal rows, in closed form.

    Column j is a run of ``count`` rows with diagonal diag[j] and
    off-diagonal off[j] != 0 (also on the coupling into the run), entered
    with pivot[j], the pivot of the row before it (+inf for none): the
    recurrence d_i = diag - off^2 / d_(i-1) from d_0 = pivot. With b =
    |off| and c = diag / 2b, d_i / b = y_i / y_(i-1) for y_i =
    r U_i(c) - U_(i-1)(c), r = pivot / b and U the Chebyshev polynomials
    of the second kind, so a pivot is negative where y changes sign; from
    r = +inf the count is the number of eigenvalues diag + 2 b cos(i pi /
    (count + 1)) below zero (Wittrick and Williams, Q. J. Mech. Appl.
    Math. 24, 1971). For k = ``count`` rows and c >= 0:

    * c < 1, c = cos theta: y_i is proportional to sin psi_i, psi_i =
      (i + 1) theta + phi, phi = atan2(sin theta, r - c) in [0, pi]; the
      count is floor(psi_k / pi) - [r < 0], and the last pivot is b y_k /
      y_(k-1), its sign read off the same floors, so a count and the sign
      of its last pivot always agree.
    * c >= 1, c = cosh t: q_i = U_(i-1) / U_i = e^-t (1 - e^(-2it)) / (1 -
      e^(-2(i+1)t)) rises to e^-t and y changes sign once at most, after
      r in [0, q_k): the count is [r - q_k < 0] - [r < 0] by sign bits,
      and the last pivot b (r / q_k - 1) / (r - q_(k-1)).

    For c < 0, (-1)^i y_i is the orbit of -c from -r, so the count is k
    less that orbit's and the last pivot minus its: theta stays in (0,
    pi / 2], and theta and t are taken from (2 b - |diag|) / 4b, sin^2
    theta/2 and -sinh^2 t/2, so they keep the distance of c from 1. A zero
    pivot counts by its sign bit, as in ``pivot_sweep``. Away from the
    eigenvalues of the run the counts are the recurrence's, and the last
    pivots agree with its to round-off. Returns (negative counts of the
    run's rows, last pivots).
    """
    b = np.abs(off)
    a = np.abs(diag)
    r = pivot / b
    k = int(count)
    flipped = diag < 0.0
    if flipped.any():
        r = np.where(flipped, -r, r)
    # 1 - c and c - 1 over 2, exact to the rounding of one quotient: where
    # c is near 1, a and 2 b agree in their leading bits and 2 b - a is
    # exact, which arccos(c) and arccosh(c) would lose to c's rounding
    half = (2.0 * b - a) / (4.0 * b)
    wave = half > 0.0
    negative = np.empty(a.shape, dtype=np.intp)
    last = np.empty(a.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if wave.any():
            inside = slice(None) if wave.all() else wave
            cw, rw = a[inside] / (2.0 * b[inside]), r[inside]
            theta = 2.0 * np.arcsin(np.sqrt(half[inside]))
            sines = np.sin(np.multiply.outer((k + 1, k, k - 1), theta))
            before = np.arctan2(np.sin(theta), rw - cw) + k * theta
            turns = np.floor((before + theta) / np.pi)
            unsigned = np.signbit(rw)
            was = np.floor(before / np.pi) if k > 1 else unsigned
            # y_k / y_(k-1) from the sines of (k + 1) theta, k theta and
            # (k - 1) theta, which keep a small theta to round-off where
            # psi_k = phi + (k + 1) theta, near a multiple of pi, would not;
            # for |r| > 1 over r, so that r = +-inf is finite too
            big = np.abs(rw) > 1.0
            u = np.where(big, 1.0 / rw, rw)
            top = np.where(big, sines[0] - u * sines[1],
                           u * sines[0] - sines[1])
            ratio = top / np.where(big, sines[1] - u * sines[2],
                                   u * sines[1] - sines[2])
            negative[inside] = turns - unsigned
            last[inside] = np.copysign(ratio, was - turns + 0.5)
        if not wave.all():
            rm = r[~wave]
            t = np.maximum(2.0 * np.arcsinh(np.sqrt(-half[~wave])), 1e-300)

            def q(i):
                return np.exp(-t) * np.expm1(-2.0 * i * t) / np.expm1(
                    -2.0 * (i + 1) * t)

            q_k = q(k)
            negative[~wave] = (np.signbit(rm - q_k).astype(np.intp)
                               - np.signbit(rm))
            last[~wave] = np.where(np.isinf(rm), 1.0 / q_k,
                                   (rm / q_k - 1.0) / (rm - q(k - 1)))
    last *= b
    if flipped.any():
        negative[flipped] = k - negative[flipped]
        last[flipped] *= -1.0
    return negative, last


def inverse_iteration(diag: np.ndarray, off: np.ndarray,
                      start: np.ndarray) -> np.ndarray:
    """Null vectors of nearly singular real symmetric tridiagonals.

    Row j of ``diag`` (m, n) and ``off`` (m, n - 1) is one matrix, shifted
    onto one of its eigenvalues by the caller. Each is factored once with
    partial pivoting and two solves are applied to row j of ``start``,
    normalizing in between; returns the unit vectors as rows (m, n). A pivot
    that is exactly zero (the shift hit the eigenvalue to the last bit) is
    replaced by eps times the matrix scale, so the solve returns the null
    vector rather than NaN. ``Factorization`` refuses such operators.
    """
    gttrf, gttrs = _tridiagonal_kernels(diag.dtype)
    vectors = np.empty(diag.shape)
    for j in range(diag.shape[0]):
        dl, d, du, du2, ipiv, info = gttrf(off[j], diag[j], off[j])
        if info < 0:
            raise RuntimeError(f"gttrf failed with info = {info}")
        if info > 0:
            scale = max(np.abs(diag[j]).max(), np.abs(off[j]).max())
            d[d == 0.0] = np.finfo(float).eps * scale
        x = start[j]
        for _ in range(2):
            x, info = gttrs(dl, d, du, du2, ipiv, x / np.linalg.norm(x))
            if info != 0:
                raise RuntimeError(f"gttrs failed with info = {info}")
        vectors[j] = x / np.linalg.norm(x)
    return vectors


def _differentiated_sweep(diag, ddiag, off2, doff2, floor=None):
    """Last LDL^T pivot of the rows given and its derivative in lam.

    p_i = d_i - o2_{i-1} / p_{i-1}, and its derivative by the quotient
    rule, row by row in place: six ufuncs per row, no allocation. A
    ``floor`` replaces every pivot that is exactly zero.
    """
    pivot = np.array(diag[0], dtype=float)
    slope = np.array(ddiag[0], dtype=float)
    ratio, work = np.empty_like(pivot), np.empty_like(pivot)
    for row, drow, coupling, dcoupling in zip(diag[1:], ddiag[1:], off2,
                                              doff2):
        if floor is not None:
            pivot[pivot == 0.0] = floor
        np.divide(coupling, pivot, out=ratio)
        np.multiply(ratio, slope, out=work)
        np.subtract(dcoupling, work, out=work)
        np.divide(work, pivot, out=work)
        np.subtract(drow, work, out=slope)
        np.subtract(row, ratio, out=pivot)
    if floor is not None:
        pivot[pivot == 0.0] = floor
    return pivot, slope


def _twisted(diag, ddiag, off2, doff2, edge, floor=None):
    """``twisted_residues`` without the zero-pivot retry."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        upper, dupper = _differentiated_sweep(
            diag[:edge + 1], ddiag[:edge + 1], off2[:edge], doff2[:edge],
            floor)
        lower, dlower = _differentiated_sweep(
            diag[:edge:-1], ddiag[:edge:-1], off2[:edge:-1], doff2[:edge:-1],
            floor)
        coupling, dcoupling = off2[edge], doff2[edge]
        gamma_lo = dupper - (dcoupling - coupling / lower * dlower) / lower
        gamma_hi = dlower - (dcoupling - coupling / upper * dupper) / upper
        return -1.0 / gamma_lo, -1.0 / gamma_hi, lower


def twisted_residues(diag, ddiag, off2, doff2, edge: int):
    """Resolvent residues at rows ``edge`` and ``edge + 1`` of every column.

    ``diag`` and ``ddiag`` are sequences of n rows, ``off2`` and ``doff2``
    of n - 1 rows, each an array of m entries: column j of them is a real
    symmetric tridiagonal T(lam_j) (diagonal and squared off-diagonal) and
    their derivatives in lam. A row array may appear any number of times.
    A forward LDL^T sweep down to row ``edge`` and a backward one up to
    row edge + 1, each differentiated as it runs, meet at the coupling
    between the two rows, which gives gamma_i = 1 / [T^-1]_ii and gamma_i'
    at both rows (the twisted factorization of Dhillon-Parlett MRRR).
    Where gamma_i has a simple zero lam_j, -1 / gamma_i'(lam_j) is the
    weight that the pole of [T(lam)^-1]_ii at lam_j carries (Golub-Welsch):
    for T = K - lam M, x_i^2 of the M-normalized null vector x. One pass
    over the rows serves all m columns. A pivot that is exactly zero (a
    leading or trailing block singular at lam to the last bit) leaves its
    column non-finite; such columns are swept again with zero pivots
    replaced by eps times the largest entry. A residue is only as good as
    lam_j: off the zero by e it is off by about 2 e |[T^-1]_ii| (the rest
    of the sum), which swamps the weights of null vectors that nearly
    vanish on row i.

    Returns (residue at edge, residue at edge + 1, backward pivot at
    edge + 1); a null vector has sign(x_edge x_edge+1) = sign(-o_edge /
    that pivot).
    """
    lo, hi, pivot = _twisted(diag, ddiag, off2, doff2, edge)
    bad = np.flatnonzero(~(np.isfinite(lo) & np.isfinite(hi)))
    if bad.size:
        def columns(rows):
            return [row[bad] for row in rows]

        scale = max(max(np.abs(row[bad]).max() for row in diag),
                    max(np.sqrt(row[bad].max()) for row in off2))
        floor = np.finfo(float).eps * scale
        lo[bad], hi[bad], pivot[bad] = _twisted(
            columns(diag), columns(ddiag), columns(off2), columns(doff2),
            edge, floor)
    return lo, hi, pivot


def lattice_hops(mesh: Mesh1D, k: float, x, direction=None):
    """What carries a unit vacuum lattice wave from a port of an open mesh
    to the points ``x`` past it: the wave at x over its value at the port.

    Past each port the vacuum lattice continues at its wall element's
    spacing h, on virtual nodes x_port + s j h (j = 0, 1, ...; s = -1
    past the left port, +1 past the right), whose wall node is j = 1. A
    lattice wave toward ``direction`` d (+1: +x, -1: -x) is e^{i d s kt h j}
    times its port value on them, with kt = ``lattice_wavenumber(k, h)``,
    the dispersion of the outgoing boundary, and P1 between them, as on the
    mesh. ``None`` is the outgoing wave, d = s: what a scattered or
    point-source field is past the ports.
    """
    nodes = mesh.nodes
    right = x > nodes[-2]
    h = mesh.element_lengths[np.where(right, -1, 0)]
    side = np.where(right, 1.0, -1.0)
    step = lattice_wavenumber(k, h) * h * (
        1.0 if direction is None else direction * side)
    hops = np.abs(x - nodes[np.where(right, -2, 1)]) / h
    j = np.floor(hops)
    return np.exp(1j * step * j) * ((j + 1.0 - hops)
                                    + (hops - j) * np.exp(1j * step))


def carried_past_port(mesh: Mesh1D, k: float, port, x, direction=None):
    """A lattice wave at the points ``x`` past a port, from its value
    ``port`` there: ``port`` times ``lattice_hops``.

    The product is formed in real arithmetic, as numpy's one-value complex
    loop forms it: its vector loop, with fused multiply-adds, rounds apart,
    so a point would read other bits alone than among others.
    """
    hop = lattice_hops(mesh, k, x, direction)
    out = np.empty(np.broadcast_shapes(port.shape, hop.shape), dtype=complex)
    out.real = port.real * hop.real - port.imag * hop.imag
    out.imag = port.real * hop.imag + port.imag * hop.real
    return out


@dataclass(frozen=True)
class P1Stencil:
    """Where P1 interpolation reads each of a set of points of a mesh.

    ``nodes`` stacks, for each point x, np.interp's bracketing node j,
    the one at or below x, and the node its slope is taken to, j + 1
    (j - 1 at the mesh's last node, where that slope is never used);
    ``offset`` is x - x_j and ``width`` the signed distance from x_j to
    that node. Found once for a set of points, it interpolates nodal
    values gathered at ``nodes`` for any number of fields at once.
    """

    nodes: np.ndarray  # (2,) + x.shape: j, then its neighbour
    offset: np.ndarray
    width: np.ndarray

    def __call__(self, at_low, at_high):
        """The interpolated values, from the values at ``nodes[0]`` and
        ``nodes[1]`` (each of shape (..., *x.shape), leading axes free),
        on the real and imaginary parts apart (``real``)."""
        return (self.real(at_low.real, at_high.real)
                + 1j * self.real(at_low.imag, at_high.imag))

    def real(self, at_low, at_high):
        """``__call__`` for real values: np.interp's arithmetic, to the bit
        for finite values, the node's value where x is a node, else slope
        (x - x_j) + f_j with slope (f_{j+1} - f_j) / h."""
        slope = (at_high - at_low) / self.width
        return np.where(self.offset == 0.0, at_low,
                        slope * self.offset + at_low)


def p1_stencil(mesh: Mesh1D, x) -> P1Stencil:
    """The ``P1Stencil`` of the points ``x``, which must lie in the mesh's
    physical region; NaN points read NaN."""
    x = np.asarray(x, dtype=float)
    lo, hi = mesh.physical_region
    if np.any((x < lo) | (x > hi)):
        raise ValueError("evaluation point outside the physical region")
    nodes = mesh.nodes
    low = np.searchsorted(nodes, x, "right") - 1
    high = np.where(low < nodes.size - 1, low + 1, low - 1)
    return P1Stencil(nodes=np.stack([low, high]), offset=x - nodes[low],
                     width=nodes[high] - nodes[low])


def evaluate_field(mesh: Mesh1D, dofs: np.ndarray, x, k=None):
    """P1 interpolation of nodal values (``p1_stencil``), and past the
    ports of an open mesh the outgoing lattice wave of wavenumber ``k``
    (``carried_past_port``).

    ``dofs`` holds one value per mesh node. The field past the ports is
    what a scattered or point-source field is there, the one the dropped
    vacuum padding carried; a closed box, or no ``k``, refuses such points.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = mesh.physical_region
    past = (x < lo) | (x > hi)
    # clipped, a point past a port reads the port's value, exactly
    at = p1_stencil(mesh, np.clip(x, lo, hi))
    out = np.asarray(at(*dofs[at.nodes]))
    if past.any():
        if k is None or not mesh.is_open or not np.isfinite(x[past]).all():
            raise ValueError("evaluation point outside the physical region")
        out[past] = carried_past_port(mesh, k, out[past], x[past])
    return out if out.ndim else complex(out)


@dataclass(frozen=True)
class FieldSolution:
    """Nodal solution plus the mesh needed to evaluate it anywhere."""

    mesh: Mesh1D
    k: float
    dofs: np.ndarray

    def __call__(self, x):
        return evaluate_field(self.mesh, self.dofs, x, k=self.k)

    def at_node(self, index: int) -> complex:
        return complex(self.dofs[index])
