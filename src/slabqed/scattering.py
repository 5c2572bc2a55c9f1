"""Plane-wave scattering off the slab in the scattered-field formulation.

The total field is an incident wave (d = +-1, unit amplitude, absolute
phase referenced at x = 0) plus a scattered part solved on the mesh:
L phi_sca = (L_vac - L) Phi_inc, where L_vac is the operator with an
empty slab, so L_vac - L lives on the slab's nodes alone. The incident
wave is the lattice plane wave of ``lattice_plane_wave``: nodal values
e^{i d theta(x_j)}, where theta advances by the lattice wavenumber
``fem.lattice_wavenumber`` across each element, interpolated as P1. It
is what the vacuum mesh itself carries (L_vac annihilates it), so
incident and scattered parts share one dispersion relation. The mesh
keeps the wave of the last k as its phase theta, with kt found once per
distinct element length (``fem.lattice_steps``, which the operator's
outgoing condition reads too); its values are formed only where they
are read: on the slab's nodes for the load and the absorbed power (once
for both directions), at the nodes asked of ``total_at_nodes`` and at the
two nodes that bracket each point of ``total_at``.

The scattered field is outgoing, and the mesh's exact outgoing boundary
lets it leave without reflection; fields are read in the mesh's physical
region only, never at its wall nodes. The solve takes its LU, and the
slab term of its load (``Factorization.slab_load``), from
``fem.factorization``, so both directions and the point-source solves at
one frequency share one factorization. The absorbed power of the energy
balance is the slab's loss read from the same LU
(``Factorization.slab_loss``): no module but ``fem`` reads chi(k).

Reflection and transmission are reported in the face (de-embedded port)
convention: r is the reflected-to-incident ratio at the illuminated face,
t the transmitted-to-incident ratio at the exit face. An empty slab then
reads r = 0, t = 1 exactly, and both incidence directions agree because
the slab is mirror symmetric. Both are read at the outgoing boundary's two
ports, the nodes next to the walls, where the scattered field is one
outgoing lattice wave, and carried to the faces by the wave's own phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import (
    FieldSolution,
    evaluate_field,
    factorization,
    kept,
    lattice_steps,
)
from .medium import MediumSpec
from .mesh import Mesh1D


@dataclass(frozen=True, eq=False)
class LatticeWave:
    """Unit discrete plane wave toward +x, held as its phase at every node.

    The nodal values e^{i d theta(x_j)} (d = +1 toward +x, -1 the complex
    conjugate, toward -x) are formed on demand, only at the nodes read.
    The mesh keeps the wave (``lattice_plane_wave``), so it holds no
    reference to the mesh.
    """

    phase: np.ndarray  # theta(x_j) at every node, read-only

    def values(self, nodes=slice(None), direction: int = +1):
        """e^{i d theta} at ``nodes`` (an index, a slice or an index array).

        The +x values on the last slice asked for are kept with the wave,
        read-only, so both directions of one frequency share one ``exp``.
        """
        def build():
            wave = np.exp(1j * self.phase[nodes])
            wave.setflags(write=False)
            return wave

        if isinstance(nodes, slice):
            key = (nodes.start, nodes.stop, nodes.step)
            wave = kept(self, "values", key, build)
        else:
            wave = build()
        return wave if direction > 0 else wave.conj()


@dataclass(frozen=True)
class PlaneWaveSolution:
    mesh: Mesh1D
    medium: MediumSpec
    k: float
    direction: int
    scattered: FieldSolution
    incident: LatticeWave  # the +x lattice wave

    def total_at_nodes(self, nodes):
        """Incident + scattered at ``nodes`` (an index, a slice or an index
        array); a complex for one index."""
        total = (self.incident.values(nodes, self.direction)
                 + self.scattered.dofs[nodes])
        return total if total.ndim else complex(total)

    def total_at(self, x):
        """Incident + scattered, at points of the physical region.

        Both parts are P1 on one mesh, so their sum is interpolated once.
        It is formed only at the two nodes that bracket each point, the
        only nodes interpolation reads there, so this is bitwise the
        interpolation of the sum formed at every node.
        """
        nodes = self.mesh.nodes
        low = np.clip(np.searchsorted(nodes, x, "right") - 1,
                      0, nodes.size - 2)
        bracket = np.zeros(nodes.size, dtype=bool)
        bracket[low] = bracket[low + 1] = True
        used = np.flatnonzero(bracket)
        return evaluate_field(self.mesh, self.total_at_nodes(used), x, used)


def lattice_plane_wave(mesh: Mesh1D, k: float) -> LatticeWave:
    """Unit discrete plane wave travelling toward +x, kept with the mesh.

    Nodal phases theta(x_j): theta advances by kt_e h_e across each
    element (``fem.lattice_steps``, one per distinct element length, which
    the outgoing condition of the operator reads too) and theta(0) = 0, the
    oracle's absolute phase. Its complex conjugate is the wave travelling
    toward -x. The mesh keeps the wave of the last k (``fem.kept``), so
    every solve and read at one frequency shares it.
    """
    def build():
        theta = np.zeros(mesh.n_nodes)
        np.cumsum(lattice_steps(mesh, k)[mesh.length_classes[1]],
                  out=theta[1:])
        theta -= np.interp(0.0, mesh.nodes, theta)
        theta.setflags(write=False)
        return LatticeWave(phase=theta)

    return kept(mesh, "lattice_wave", k, build)


def solve_scattering(
    mesh: Mesh1D,
    medium: MediumSpec,
    k: float,
    direction: int,
) -> PlaneWaveSolution:
    """Scattered-field solve for a unit plane wave from the left (+1) or right.

    The incident wave is the +x wave of ``lattice_plane_wave(mesh, k)``
    (d = +1) or its complex conjugate (d = -1). The load is (L_vac - L) w
    (``Factorization.slab_load``), from the wave's values on the mesh's
    ``slab_nodes`` alone. The LU is ``fem.factorization``'s, shared with
    every other solve at this frequency on this mesh. The load vector is
    solved in place.
    """
    if direction not in (+1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction}")
    lu = factorization(mesh, medium, k)
    wave = lattice_plane_wave(mesh, k)
    dofs = lu.slab_load(wave.values(mesh.slab_nodes, direction))
    lu.solve_in_place(dofs[1:-1])
    dofs[0] = dofs[-1] = 0.0  # Dirichlet walls, whatever the load put there
    return PlaneWaveSolution(
        mesh=mesh,
        medium=medium,
        k=float(k),
        direction=direction,
        scattered=FieldSolution(mesh=mesh, k=float(k), dofs=dofs),
        incident=wave,
    )


def extract_r_t(solution: PlaneWaveSolution) -> tuple[complex, complex]:
    """Reflection and transmission in the face (de-embedded port) convention.

    r is the reflected/incident amplitude ratio at the illuminated face,
    t the transmitted/incident ratio at the exit face, so an empty slab
    gives r = 0, t = 1 with no propagation phase. The slab is mirror
    symmetric, hence both incidence directions report the same values.
    At the ports of an open mesh, the nodes next to the walls where
    ``fem.assemble`` puts the boundary's b rho, the scattered field is one
    outgoing lattice wave, e^{-i d theta} behind the slab and e^{i d theta}
    beyond it; the incident wave's phase theta carries it to the faces, so
    any padding will do. A closed box has no ports and is refused.
    """
    mesh = solution.mesh
    if not mesh.is_open:
        raise ValueError("r and t are read at the ports of an open mesh; "
                         "a closed box has none")
    d, theta = solution.direction, solution.incident.phase
    u = solution.scattered.dofs
    (back, fwd), faces = (1, mesh.n_nodes - 2), mesh.slab_nodes
    face_in = faces.start
    if d < 0:
        back, fwd, face_in = fwd, back, faces.stop - 1
    r = u[back] * np.exp(1j * d * (theta[back] - 2.0 * theta[face_in]))
    t = 1.0 + u[fwd] * np.exp(-1j * d * theta[fwd])
    return complex(r), complex(t)


@dataclass(frozen=True)
class EnergyBalance:
    flux_deficit: float  # 1 - |r|^2 - |t|^2
    absorbed: float  # the slab's loss of Phi_tot, over k
    residual: float  # relative mismatch


def energy_balance(solution: PlaneWaveSolution) -> EnergyBalance:
    """Check that the missing flux equals the power dissipated in the slab.

    The absorbed power is the slab's loss -Phi^H Im(L - L_vac) Phi of the
    nodal total field over k (``Factorization.slab_loss``): on P1
    k Im(chi) int_slab |Phi_tot|^2, exact for the P1 field.
    """
    mesh, k = solution.mesh, solution.k
    r, t = extract_r_t(solution)
    deficit = 1.0 - abs(r) ** 2 - abs(t) ** 2

    phi = solution.total_at_nodes(mesh.slab_nodes)
    lu = factorization(mesh, solution.medium, k)
    absorbed = lu.slab_loss(phi, phi).real / k
    # floor the scale so a lossless run (both sides ~ round-off) reads as a
    # tiny residual instead of 0/0 noise
    scale = max(abs(deficit), abs(absorbed), 1e-6)
    return EnergyBalance(
        flux_deficit=deficit,
        absorbed=absorbed,
        residual=abs(deficit - absorbed) / scale,
    )
