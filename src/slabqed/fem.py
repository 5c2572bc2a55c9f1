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
(``_load_flapack``). f2py copies every array it may not overwrite, so the
LU factors fresh bands in place and ``Factorization.solve``, the one solve
of the package, overwrites a block its caller owns: no copy in or out.

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
``Factorization.slab_load`` gives the load (L_vac - L) w of a wave w and
``Factorization.slab_loss`` the slab's loss -v^H Im(L - L_vac) u between
two fields, both over the slab's nodes only, and
``SystemMatrices.loss_interior`` the bands of -Im(L - L_vac). On P1 these
are k^2 chi M_slab w, k^2 chi_I v^H M_slab u and k^2 Im M.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import weakref
from dataclasses import dataclass

import numpy as np

from .medium import MediumSpec
from .mesh import Mesh1D

GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(4)
_SHAPE_LO = 0.5 * (1.0 - GAUSS_NODES)  # hat falling across the element
_SHAPE_HI = 0.5 * (1.0 + GAUSS_NODES)  # hat rising across the element

# the identity checks refuse systems above this many dofs: they solve for
# every column of G, O(n^2) time, though only a block of columns is held
DEFAULT_DOF_CAP = 4000

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
    A scalar h gives a float, an array of spacings one kt per entry.
    The half-angle form sin(kt h / 2) = (kh/2) / sqrt(1 + (kh)^2/6) is used:
    arccos of the cosine above loses half the digits of kt h as kh -> 0
    (2e-10 relative at kh ~ 1e-3), and the phase step of the outgoing
    boundary, e^{i kt h}, carries the radiation loss.
    """
    h = np.asarray(h, dtype=float)
    z = k * h
    half_sine = 0.5 * z / np.sqrt(1.0 + z**2 / 6.0)
    if (half_sine >= 1.0).any():
        raise ValueError(
            f"no propagating lattice wave at k = {k} with spacing "
            f"h = {np.max(h)}"
        )
    kt = 2.0 * np.arcsin(half_sine) / h
    return float(kt) if kt.ndim == 0 else kt


# the ports of an open mesh, the nodes next to its walls
_PORTS = np.array([1, -2])


@dataclass(frozen=True, eq=False)
class SystemMatrices:
    """Assembled tridiagonal bands over all nodes, walls included.

    ``s_diag/s_off`` and ``m_diag/m_off`` are the stiffness and mass bands;
    ``off[i]`` couples node i to node i+1. Interior (Dirichlet-reduced)
    views are provided for the solver and the identity checks. ``chi`` is
    the slab susceptibility chi(k) the bands were assembled with, which
    ``Factorization`` turns into the slab term, and ``phase`` the nodal
    phase theta of the vacuum lattice's plane wave at this k, read-only
    (None on a closed box, which has no incident wave at any k).
    Systems compare by identity: equal bands do not make two systems equal.
    """

    mesh: Mesh1D
    k: float
    chi: complex
    s_diag: np.ndarray
    s_off: np.ndarray
    m_diag: np.ndarray
    m_off: np.ndarray
    phase: np.ndarray | None

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

    def operator_interior(self):
        """Bands of L = S - k^2 M on the interior nodes."""
        k2 = self.k**2
        return (self.s_diag[1:-1] - k2 * self.m_diag[1:-1],
                self.s_off[1:-1] - k2 * self.m_off[1:-1])


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
    Holds arrays and slices only, not the mesh, so a copy kept for a mesh
    dies with it.
    """

    def __init__(self, mesh: Mesh1D):
        half = 0.5 * mesh.element_lengths[:, None]
        on_slab = np.zeros_like(half)
        on_slab[mesh.slab_elements] = 1.0
        self.m0_diag, self.m0_off = _mass_bands(half, 1.0)
        self.slab_diag, self.slab_off = _mass_bands(half, on_slab)
        self.slab_elements, self.slab_nodes = (mesh.slab_elements,
                                               mesh.slab_nodes)
        # hat slopes are constant +-1/h, so the element stiffness is
        # k_e * [[1, -1], [-1, 1]] with k_e = (1/2h) sum w
        k_e = (_gauss_sum(GAUSS_WEIGHTS)
               / (2.0 * mesh.element_lengths)).astype(complex)
        s_diag = np.zeros(mesh.n_nodes, dtype=complex)
        s_diag[:-1] += k_e
        s_diag[1:] += k_e
        self.s_diag, self.s_off = _read_only(s_diag), _read_only(-k_e)


def static_bands(mesh: Mesh1D) -> StaticBands:
    """The k-independent bands of ``mesh``, built once and kept with it."""
    return kept(mesh, "static_bands", None, lambda: StaticBands(mesh))


def node_of(mesh: Mesh1D, x: float) -> int:
    """``mesh.find_node(x)``, kept with the mesh for the last x asked.

    The routes read the atom's node at every frequency, so a sweep
    bisects the nodes once.
    """
    return kept(mesh, "node", x, lambda: mesh.find_node(x))


def assemble(mesh: Mesh1D, medium: MediumSpec, k: float) -> SystemMatrices:
    """Assemble stiffness and mass bands for wavenumber k.

    Parameters
    ----------
    mesh : Mesh1D
    medium : MediumSpec
        Supplies chi(k); its slab must be the mesh's, which places it.
    k : float
        Wavenumber; enters through eps_r dispersion and, on an open mesh,
        the outgoing condition at the two boundary elements.

    Returns
    -------
    SystemMatrices
    """
    if k <= 0:
        raise ValueError(f"k must be > 0, got {k}")
    if medium.slab_half_length != mesh.slab_half_length:
        raise ValueError(
            f"the medium's slab half-length {medium.slab_half_length} is not "
            f"the mesh's {mesh.slab_half_length}"
        )
    # a pole of chi is refused before numpy divides by zero and warns
    chi = np.nan if medium.pole_at(k) else complex(medium.susceptibility(k))
    if not np.isfinite(chi):
        raise ValueError(
            f"chi(k) is not finite at k = {k}: a lossless slab "
            f"(gamma = 0) has no permittivity at its resonance omega_0"
        )
    static = static_bands(mesh)
    # M_slab is an exact zero off its nodes and b rho off the two ports:
    # adding each over its own nodes only leaves every band entry bitwise
    # as a sum over all n would. A band without a per-k term is the static
    # one itself, read-only.
    m_diag, m_off = static.m0_diag.copy(), static.m0_off.copy()
    nodes, elements = mesh.slab_nodes, mesh.slab_elements
    m_diag[nodes] += chi * static.slab_diag[nodes]
    m_off[elements] += chi * static.slab_off[elements]
    s_diag, phase = static.s_diag, None
    if mesh.is_open:
        # the phase kt h the lattice wave advances across each element, kt
        # found once per distinct element length
        lengths, classes = mesh.length_classes
        steps = (lattice_wavenumber(k, lengths) * lengths)[classes]
        phase = np.concatenate(([0.0], np.cumsum(steps)))
        # theta(0) = 0, the oracle's absolute phase
        phase = _read_only(phase - np.interp(0.0, mesh.nodes, phase))
        # the vacuum lattice beyond each wall carries u_1 rho^j outward:
        # eliminating it adds b rho to the last physical node's diagonal,
        # rho from the kt the lattice wave advances by
        ends = [0, -1]
        b = static.s_off.real[ends] - k**2 * static.m0_off.real[ends]
        s_diag = s_diag.copy()
        s_diag[_PORTS] += b * np.exp(1j * steps[ends])
    return SystemMatrices(
        mesh=mesh, k=float(k), chi=chi,
        s_diag=s_diag, s_off=static.s_off,
        m_diag=m_diag, m_off=m_off, phase=phase,
    )


class Factorization:
    """LU factors of the interior operator, reusable across right-hand sides,
    the operator's slab term, which the loads and rates read, and, on an
    open mesh, the lattice wave the scattering states are driven by.

    Holds the factors, k, the scalar k^2 chi(k) by which the slab enters
    L_vac - L = k^2 chi(k) M_slab, the wave's nodal phase theta
    (``phase``, read-only, None on a closed box) and the k-independent bands (``static_bands``,
    arrays and slices only), not the system or its mesh, so an LU kept for
    a mesh by ``factorization`` is freed together with that mesh. L_vac is
    the operator of the same mesh with an empty slab: the two differ on
    ``slab_nodes`` alone.
    """

    def __init__(self, system: SystemMatrices):
        self.n_interior = system.n_interior
        self.k = system.k
        self.phase = system.phase
        self._slab_term = self.k**2 * system.chi
        self._static = static_bands(system.mesh)
        diag, off = system.operator_interior()
        # the operator's scale max|L_ij|, taken before gttrf overwrites
        # the bands
        scale = max(np.abs(diag).max(), np.abs(off).max())
        gttrf, gttrs = _tridiagonal_kernels(diag.dtype)
        # the bands are fresh temporaries: d and du are factored in place;
        # f2py copies dl, which shares ``off`` with du, before the call
        dl, d, du, du2, ipiv, info = gttrf(off, diag, off,
                                           overwrite_d=1, overwrite_du=1)
        if info > 0 or np.abs(d).min() < 1e-14 * scale:
            raise SingularOperatorError(
                f"operator is singular at k = {system.k}: "
                "the frequency coincides with a discrete resonance"
                + self._slab_scale_note(system, scale)
            )
        if info < 0:
            raise RuntimeError(f"gttrf failed with info = {info}")
        self._factors = (dl, d, du, du2, ipiv)
        self._gttrs = gttrs
        if self.phase is not None:  # the +x values both directions read
            slab = self.phase[self._static.slab_nodes]
            self._slab_wave = _read_only(np.exp(1j * slab))

    def _slab_scale_note(self, system: SystemMatrices, scale) -> str:
        """Why the pivot test may have tripped, when the slab rows set the
        scale it is relative to: k^2 chi(k) and the contrast of the largest
        entry with the largest entry of L_vac; otherwise nothing."""
        k2, static = self.k**2, self._static
        vacuum = max(np.abs(band[1:-1]).max() for band in (
            system.s_diag - k2 * static.m0_diag,
            system.s_off - k2 * static.m0_off))
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
            raise ValueError("a closed box has no scattering states: its "
                             "walls reflect what the slab scatters")
        if isinstance(nodes, slice) and nodes == self._static.slab_nodes:
            values = self._slab_wave
        else:
            values = np.exp(1j * self.phase[nodes])
        return values if direction > 0 else values.conj()

    def _slab_product(self, values) -> np.ndarray:
        """M_slab w on ``slab_nodes``, for the values of w there."""
        static = self._static
        off = static.slab_off[static.slab_elements]
        product = static.slab_diag[static.slab_nodes] * values
        product[:-1] += off * values[1:]
        product[1:] += off * values[:-1]
        return product

    def slab_load(self, values) -> np.ndarray:
        """(L_vac - L) w, for the values of w on ``slab_nodes``.

        One value per mesh node, exactly zero outside ``slab_nodes``: on
        P1 the band product k^2 chi M_slab w, the consistent load of the
        P1 wave over the slab.
        """
        f = np.zeros(self.n_interior + 2, dtype=complex)
        # scale first: numpy's complex multiply is not bitwise commutative
        np.multiply(self._slab_term, self._slab_product(values),
                    out=f[self._static.slab_nodes])
        return f

    def slab_loss(self, u, v) -> complex:
        """-v^H Im(L - L_vac) u, for the values of u and v on ``slab_nodes``.

        The loss the slab adds to the operator, between two fields: on P1
        k^2 chi_I v^H M_slab u, the element rule's k^2 chi_I int_slab
        u conj(v) dx to round-off; 0 without a slab.
        """
        return self._slab_term.imag * complex(
            np.vdot(v, self._slab_product(u)))

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


def factorization(mesh: Mesh1D, medium: MediumSpec, k: float) -> Factorization:
    """The LU of L = S - k^2 M for (mesh, medium, k).

    Every solve at one frequency reuses it: the mesh keeps the LU of the
    last (medium, k) solved on it, and the old LU is freed before the
    operator of a new (medium, k) is assembled. One slot per mesh suits a
    serial frequency loop; solves of two frequencies on one mesh
    interleaved would refactorize each time.
    """
    return kept(mesh, "factorization", (medium, k),
                lambda: Factorization(assemble(mesh, medium, k)))


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


def evaluate_field(mesh: Mesh1D, dofs: np.ndarray, x, nodes=slice(None),
                   k=None):
    """P1 interpolation of nodal values, and past the ports of an open mesh
    the outgoing lattice wave of wavenumber ``k`` (``lattice_hops``).

    ``dofs`` are the values at ``mesh.nodes[nodes]``, which must include
    the two nodes that bracket each point of the physical region and the
    port each point past one lies beyond. The field past the ports is what
    a scattered or point-source field is there, the one the dropped vacuum
    padding carried; a closed box, or no ``k``, refuses such points.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = mesh.physical_region
    past = (x < lo) | (x > hi)
    # clipped, a point past a port reads the port's value, exactly
    inner = np.clip(x, lo, hi)
    xp = mesh.nodes[nodes]
    out = (np.interp(inner, xp, dofs.real)
           + 1j * np.interp(inner, xp, dofs.imag))
    if past.any():
        if k is None or not mesh.is_open or not np.isfinite(x[past]).all():
            raise ValueError("evaluation point outside the physical region")
        out[past] *= lattice_hops(mesh, k, x[past])
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
