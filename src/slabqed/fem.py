"""P1 finite elements for the 1D Helmholtz operator.

Weak form on the stretched coordinate, with homogeneous Dirichlet walls:

    S[u, v] = int (1/s) u' v' dx          (gradient / stiffness part)
    M[u, v] = int eps_r s u v dx          (value / mass part)
    L = S - k^2 M

Both matrices are complex symmetric (not Hermitian) tridiagonal; this
symmetry, not any Hermiticity, is what the operator identities in
``identities`` rely on, so nothing here may conjugate matrix entries.
Element integrals use a fixed 4-point Gauss-Legendre rule, which is exact
for the polynomial stretch profiles and the P1 products appearing here.
``element_quadrature`` and ``p1_load`` are the only places that rule is
applied, and ``factorization`` is the one place an LU is built for a
solve: each mesh keeps the LU of the last (medium, k) solved on it, so all
solves at one frequency share it and no caller passes one around.
``negative_pivots`` (an inertia count) and ``inverse_iteration`` are the
real symmetric tridiagonal kernels of the eigenmode route; with the LU they
are the only LAPACK calls in the package.

Those calls are LAPACK's ``?gttrf``/``?gttrs`` through scipy's compiled
f2py wrapper ``scipy/linalg/_flapack``, which ``_load_flapack`` loads as a
plain extension module: importing ``scipy.linalg`` took ~0.35 s, more than
half of the process set-up, because it clones the numpy namespace and
pulls in ``numpy.f2py``, ``numpy.testing`` and more. f2py copies every
array it may not overwrite, so the LU hands ``gttrf`` the bands
``operator_interior`` has just built with the overwrite flags set, and
``solve`` makes one owned copy of the right-hand side for ``gttrs`` to
overwrite; without that heap churn the first solve of a fresh process is
as fast as the later ones.

The consistent mass matrix is kept as-is (no lumping or blending): on a
uniform vacuum mesh the rows are 2/h, -1/h and 2h/3, h/6.

With s = 1 + (i/k) sigma in the absorbing layers and eps_r = 1 + chi(k)
in the slab (the two never overlap), the mass splits as

    M = M_0 + chi(k) M_slab + (i/k) M_sigma,

and only three pieces of the operator vary with k: the stiffness of the
absorbing-layer elements (1/s is not linear in k), the scalar chi(k) and
the 1/k weight of M_sigma. ``static_bands`` builds the rest once per
(mesh, medium) and keeps it with the mesh: the three mass bands M_0,
M_slab and M_sigma, the sigma of the layer elements at their Gauss points
and the stiffness of every other element. ``assemble`` then does O(n)
band arithmetic per frequency and no quadrature; it refuses a medium whose
slab reaches into an absorbing layer, where the split would not hold.
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

# dense copies of the operator (identity checks, eigenmode pencil) refuse
# systems above this many dofs rather than exhausting memory
DEFAULT_DOF_CAP = 4000


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
    prefix = "z" if np.issubdtype(dtype, np.complexfloating) else "d"
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
    extracted coefficients pick up a spurious phase k(kt/k - 1) x_probe that
    grows with the probe distance and swamps the actual discretization error.
    A scalar h gives a float, an array of spacings one kt per entry.
    """
    h = np.asarray(h, dtype=float)
    z = k * h
    c = (1.0 - z**2 / 3.0) / (1.0 + z**2 / 6.0)
    if np.any(np.abs(c) >= 1.0):
        raise ValueError(
            f"no propagating lattice wave at k = {k} with spacing "
            f"h = {np.max(h)}"
        )
    kt = np.arccos(c) / h
    return float(kt) if kt.ndim == 0 else kt


@dataclass(frozen=True, eq=False)
class SystemMatrices:
    """Assembled tridiagonal bands over all nodes, walls included.

    ``s_diag/s_off`` and ``m_diag/m_off`` are the stiffness and mass bands;
    ``off[i]`` couples node i to node i+1. Interior (Dirichlet-reduced)
    views are provided for the solver and the identity checks. Systems
    compare and hash by identity, so work done on one can be keyed to it.
    """

    mesh: Mesh1D
    k: float
    s_diag: np.ndarray
    s_off: np.ndarray
    m_diag: np.ndarray
    m_off: np.ndarray

    @property
    def n_interior(self) -> int:
        return self.mesh.n_interior

    def interior_bands(self, diag, off):
        return diag[1:-1], off[1:-1]

    def stiffness_interior(self):
        return self.interior_bands(self.s_diag, self.s_off)

    def mass_interior(self):
        return self.interior_bands(self.m_diag, self.m_off)

    def operator_interior(self):
        """Bands of L = S - k^2 M on the interior nodes."""
        k2 = self.k**2
        return (
            (self.s_diag - k2 * self.m_diag)[1:-1],
            (self.s_off - k2 * self.m_off)[1:-1],
        )

    def factorize(self) -> Factorization:
        """A fresh LU of this system's interior operator.

        For checks that work on the system they are given; solvers take
        the mesh's shared LU from ``factorization`` instead.
        """
        return Factorization(self)


def element_quadrature(mesh: Mesh1D, elements=slice(None)):
    """The element rule on ``elements`` (default: every element).

    Returns (points, half, weights): the Gauss points (n, 4), the element
    half-lengths (n, 1) and the point weights half * GAUSS_WEIGHTS (n, 4),
    so ``np.sum(weights * f(points))`` integrates f over those elements.
    """
    half = 0.5 * mesh.element_lengths[elements][:, None]
    points = mesh.element_midpoints[elements, None] + half * GAUSS_NODES
    return points, half, half * GAUSS_WEIGHTS


def p1_load(mesh: Mesh1D, elements, scale, profile) -> np.ndarray:
    """Consistent load f_i = scale int profile(x) phi_i dx over ``elements``.

    ``profile`` is either called once with the Gauss points of those
    elements, or is an array of nodal values standing for its P1
    interpolant (the rule is exact for it, so the load is scale times the
    mass matrix of ``elements`` applied to those values). Returns one value
    per mesh node, walls included.
    """
    points, half, _ = element_quadrature(mesh, elements)
    if callable(profile):
        values = profile(points)
    else:
        values = (profile[elements, None] * _SHAPE_LO
                  + profile[elements + 1, None] * _SHAPE_HI)
    common = scale * half * GAUSS_WEIGHTS * values
    f = np.zeros(mesh.n_nodes, dtype=complex)
    np.add.at(f, elements, np.sum(common * _SHAPE_LO, axis=1))
    np.add.at(f, elements + 1, np.sum(common * _SHAPE_HI, axis=1))
    return f


def _gauss_sum(values):
    """Sum over the last axis, the 4 Gauss points, as (v0 + v1) + (v2 + v3).

    The order numpy uses for complex sums, so the vacuum bands, now summed
    in real arithmetic, keep the last bit they had when summed as complex.
    """
    return ((values[..., 0] + values[..., 1])
            + (values[..., 2] + values[..., 3]))


def _mass_bands(half, weight):
    """Bands of int weight N_a N_b dx; ``weight`` is given per Gauss point."""
    common = weight * GAUSS_WEIGHTS * half
    m_lo = _gauss_sum(common * _SHAPE_LO**2)
    m_hi = _gauss_sum(common * _SHAPE_HI**2)
    diag = np.zeros(m_lo.size + 1)
    diag[:-1] += m_lo
    diag[1:] += m_hi
    off = _gauss_sum(common * _SHAPE_LO * _SHAPE_HI)
    return _read_only(diag), _read_only(off)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class StaticBands:
    """The k-independent parts of the operator on one (mesh, medium).

    ``m0_*`` is the vacuum mass, ``slab_*`` the mass over the Gauss points
    the medium places in its slab, and ``sigma_*`` the mass weighted by the
    absorbing-layer profile sigma (None without a layer). ``stiffness`` is
    the element stiffness with s = 1; the entries of the ``pml`` elements
    are replaced per k from their Gauss-point ``pml_sigma``. Holds arrays
    only, not the mesh, so a copy kept for a mesh dies with it.
    """

    def __init__(self, mesh: Mesh1D, medium: MediumSpec):
        points, half, _ = element_quadrature(mesh)
        # s(x, 1) = 1 + i sigma(x), so its imaginary part is sigma exactly
        sigma = mesh.stretch_factor(points, 1.0).imag
        in_slab = medium.in_slab(points)
        if np.any(in_slab & (sigma > 0)):
            raise ValueError("the slab reaches into the absorbing layer")
        two_h = 2.0 * mesh.element_lengths
        self.m0_diag, self.m0_off = _mass_bands(half, 1.0)
        self.slab_diag, self.slab_off = _mass_bands(half, in_slab)
        self.stiffness = _read_only(_gauss_sum(GAUSS_WEIGHTS) / two_h)
        self.pml = _read_only(np.flatnonzero(np.any(sigma > 0, axis=1)))
        self.pml_sigma = _read_only(sigma[self.pml])
        self.pml_two_h = _read_only(two_h[self.pml])
        self.sigma_diag = self.sigma_off = None
        if self.pml.size:
            self.sigma_diag, self.sigma_off = _mass_bands(half, sigma)


# mesh -> (medium, StaticBands) of the last medium assembled on that mesh
_STATIC = weakref.WeakKeyDictionary()


def static_bands(mesh: Mesh1D, medium: MediumSpec) -> StaticBands:
    """The k-independent bands of (mesh, medium), built once per pair.

    Kept like the LU of ``factorization``: one slot per mesh, replaced when
    another medium is assembled on it and freed with the mesh.
    """
    cached = _STATIC.get(mesh)
    if cached is not None and cached[0] == medium:
        return cached[1]
    bands = StaticBands(mesh, medium)
    _STATIC[mesh] = (medium, bands)
    return bands


def assemble(mesh: Mesh1D, medium: MediumSpec, k: float) -> SystemMatrices:
    """Assemble stiffness and mass bands for wavenumber k.

    Parameters
    ----------
    mesh : Mesh1D
    medium : MediumSpec
        Supplies chi(k) and the slab extent; the slab test is made at the
        quadrature points, so the slab faces (which are always mesh nodes)
        split elements cleanly.
    k : float
        Wavenumber; enters through the stretch profile and eps_r dispersion.

    Returns
    -------
    SystemMatrices
    """
    if k <= 0:
        raise ValueError(f"k must be > 0, got {k}")
    static = static_bands(mesh, medium)
    chi = complex(medium.susceptibility(k))
    m_diag = static.m0_diag + chi * static.slab_diag
    m_off = static.m0_off + chi * static.slab_off
    # stiffness: hat slopes are constant +-1/h, so the element matrix is
    # k_e * [[1, -1], [-1, 1]] with k_e = (1/2h) sum w/s
    k_e = static.stiffness.astype(complex)
    if static.pml.size:
        stretch = 1.0 + (1j / k) * static.pml_sigma
        k_e[static.pml] = (_gauss_sum(GAUSS_WEIGHTS / stretch)
                           / static.pml_two_h)
        m_diag += (1j / k) * static.sigma_diag
        m_off += (1j / k) * static.sigma_off

    s_diag = np.zeros(mesh.n_nodes, dtype=complex)
    s_diag[:-1] += k_e
    s_diag[1:] += k_e
    return SystemMatrices(
        mesh=mesh, k=float(k),
        s_diag=s_diag, s_off=-k_e,
        m_diag=m_diag, m_off=m_off,
    )


class Factorization:
    """LU factors of the interior operator, reusable across right-hand sides.

    Holds the factors only, not the system or its mesh, so an LU kept for a
    mesh by ``factorization`` is freed together with that mesh.
    """

    def __init__(self, system: SystemMatrices):
        self.n_interior = system.n_interior
        diag, off = system.operator_interior()
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
            )
        if info < 0:
            raise RuntimeError(f"gttrf failed with info = {info}")
        self._factors = (dl, d, du, du2, ipiv)
        self._gttrs = gttrs

    def solve(self, rhs_interior: np.ndarray) -> np.ndarray:
        """Solve L u = rhs on the interior; returns all-node dofs (walls 0).

        ``rhs_interior`` is one right-hand side (n,) or a block (n, m) of
        them, solved in one call; the result then has one column per
        right-hand side.
        """
        # one owned copy, which gttrs then overwrites with the solution
        rhs = np.array(rhs_interior, dtype=complex, order="F")
        if rhs.ndim not in (1, 2) or rhs.shape[0] != self.n_interior:
            raise ValueError(
                f"rhs must have shape ({self.n_interior},) or "
                f"({self.n_interior}, m), got {rhs.shape}"
            )
        dl, d, du, du2, ipiv = self._factors
        x, info = self._gttrs(dl, d, du, du2, ipiv, rhs, overwrite_b=1)
        if info != 0:
            raise RuntimeError(f"gttrs failed with info = {info}")
        dofs = np.zeros((self.n_interior + 2,) + rhs.shape[1:], dtype=complex)
        dofs[1:-1] = x
        return dofs


# mesh -> (medium, k, LU) of the last operator solved on that mesh
_LAST_LU = weakref.WeakKeyDictionary()


def factorization(mesh: Mesh1D, medium: MediumSpec, k: float) -> Factorization:
    """The LU of L = S - k^2 M for (mesh, medium, k).

    Every solve at one frequency reuses it: the mesh keeps the LU of the
    last (medium, k) solved on it, and a different (medium, k) replaces
    that entry, freed before the new operator is assembled. The entry dies
    with its mesh. One slot per mesh suits a serial frequency loop; solves
    of two frequencies on one mesh interleaved would refactorize each time.
    """
    cached = _LAST_LU.get(mesh)
    if cached is not None and cached[:2] == (medium, k):
        return cached[2]
    del cached  # with the pop, frees the old LU before the new assembly
    _LAST_LU.pop(mesh, None)
    lu = Factorization(assemble(mesh, medium, k))
    _LAST_LU[mesh] = (medium, k, lu)
    return lu


def negative_pivots(diag, off2) -> np.ndarray:
    """Negative LDL^T pivots of real symmetric tridiagonals, one per column.

    ``diag`` is a sequence of n rows and ``off2`` of n - 1 rows, each an
    array of m entries: the diagonal and the squared off-diagonal, column j
    of them being one matrix. A row array may appear any number of times.
    By Sylvester's law of inertia the count is the number of negative
    eigenvalues. A zero pivot counts by its sign bit and makes the next
    one infinite with the opposite sign, so the pair counts once, as it
    would with the zero nudged either way.
    """
    pivot = np.array(diag[0], dtype=float)
    negative = np.signbit(pivot).astype(np.intp)
    quotient = np.empty_like(pivot)
    with np.errstate(divide="ignore", invalid="ignore"):
        for row, coupling in zip(diag[1:], off2):
            np.divide(coupling, pivot, out=quotient)
            np.subtract(row, quotient, out=pivot)
            negative += np.signbit(pivot)
    return negative


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


def dense_tridiagonal(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Dense symmetric matrix from a diagonal and its off-diagonal band."""
    full = np.diag(diag)
    idx = np.arange(off.size)
    full[idx, idx + 1] = off
    full[idx + 1, idx] = off
    return full


def evaluate_field(mesh: Mesh1D, dofs: np.ndarray, x):
    """P1 interpolation of nodal values at arbitrary points inside the mesh."""
    x = np.asarray(x, dtype=float)
    if np.any(x < mesh.nodes[0]) or np.any(x > mesh.nodes[-1]):
        raise ValueError("evaluation point outside the mesh")
    out = np.interp(x, mesh.nodes, dofs.real) + 1j * np.interp(
        x, mesh.nodes, dofs.imag
    )
    return out if out.ndim else complex(out)


@dataclass(frozen=True)
class FieldSolution:
    """Nodal solution plus the mesh needed to evaluate it anywhere."""

    mesh: Mesh1D
    k: float
    dofs: np.ndarray

    def __call__(self, x):
        return evaluate_field(self.mesh, self.dofs, x)

    def at_node(self, index: int) -> complex:
        return complex(self.dofs[index])
