"""Plane-wave scattering off the slab in the scattered-field formulation.

The total field is an incident wave (d = +-1, unit amplitude, absolute
phase referenced at x = 0) plus a scattered part solved on the mesh:
L phi_sca = k^2 chi M_slab Phi_inc, the load that L - L_vac applies to the
incident wave. Each caller picks the incident wave:

* the analytic e^{i d k x} (default). It solves the vacuum problem of the
  continuum, so r and t come out in the continuum's terms; r/t extraction,
  ``energy_balance`` and the oracle comparisons use it.
* the lattice plane wave of ``lattice_plane_wave``: nodal values
  e^{i d theta(x_j)}, where theta advances by the lattice wavenumber
  ``fem.lattice_wavenumber`` across each element, interpolated as P1. It is
  what the vacuum mesh itself carries, so incident and scattered parts
  share one dispersion relation; the boundary emission rate and the
  field-correlation balance use it. The wave is held as its phase theta,
  with kt found once per distinct element length; its values are formed
  only where they are read: on the slab's nodes for the load (once for
  both directions), at one node for ``total_at_node``, and at every node
  only for ``total_at`` and ``incident_at``.

The scattered field is outgoing, and the mesh's exact outgoing boundary
lets it leave without reflection; fields are read in the mesh's physical
region only, never at its wall nodes. The solve takes its LU from
``fem.factorization``, so both directions and the point-source solves at
one frequency share one factorization.

Reflection and transmission are reported in the face (de-embedded port)
convention: r is the reflected-to-incident ratio at the illuminated face,
t the transmitted-to-incident ratio at the exit face. An empty slab then
reads r = 0, t = 1 exactly, and both incidence directions agree because
the slab is mirror symmetric. Both are read at the outgoing boundary's two
ports, the nodes next to the walls, where the scattered field is one
outgoing lattice wave, and carried back to the faces by the lattice phase
of the vacuum in between.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import (
    FieldSolution,
    evaluate_field,
    factorization,
    kept,
    lattice_wavenumber,
    plane_wave_load,
    static_bands,
)
from .medium import MediumSpec
from .mesh import Mesh1D


@dataclass(frozen=True, eq=False)
class LatticeWave:
    """Unit discrete plane wave toward +x, held as its phase at every node.

    The nodal values e^{i d theta(x_j)} (d = +1 toward +x, -1 the complex
    conjugate, toward -x) are formed on demand, only at the nodes read:
    the slab's for the load, the atom's for the boundary rate.
    """

    mesh: Mesh1D
    k: float
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
    incident: LatticeWave | None = None  # the +x lattice wave; None: analytic

    def incident_at(self, x):
        if self.incident is not None:
            return evaluate_field(
                self.mesh, self.incident.values(direction=self.direction), x)
        return np.exp(1j * self.direction * self.k * np.asarray(x, dtype=float))

    def total_at(self, x):
        """Incident + scattered, at points of the physical region."""
        if self.incident is not None:
            # both parts are P1 on one mesh: interpolate their sum once
            total = (self.incident.values(direction=self.direction)
                     + self.scattered.dofs)
            return evaluate_field(self.mesh, total, x)
        return self.incident_at(x) + self.scattered(x)

    def total_at_node(self, node: int) -> complex:
        """``total_at(mesh.nodes[node])``, read at that node alone.

        Interpolation at a node returns the nodal value, so for a lattice
        state this is bitwise ``total_at(mesh.nodes[node])``.
        """
        if self.incident is not None:
            incident = self.incident.values(node, self.direction)
        else:
            incident = self.incident_at(self.mesh.nodes[node])
        return complex(incident + self.scattered.dofs[node])


def lattice_plane_wave(mesh: Mesh1D, k: float) -> LatticeWave:
    """Unit discrete plane wave travelling toward +x.

    Nodal phases theta(x_j): theta advances by kt_e h_e across each
    element (kt_e the lattice wavenumber of its length, found once per
    distinct length of ``mesh.length_classes``) and theta(0) = 0, the
    oracle's absolute phase. Pass it to ``solve_scattering``; its complex
    conjugate is the wave travelling toward -x.
    """
    lengths, which = mesh.length_classes
    steps = (lattice_wavenumber(k, lengths) * lengths)[which]
    theta = np.concatenate(([0.0], np.cumsum(steps)))
    theta -= np.interp(0.0, mesh.nodes, theta)
    theta.setflags(write=False)
    return LatticeWave(mesh=mesh, k=float(k), phase=theta)


def solve_scattering(
    mesh: Mesh1D,
    medium: MediumSpec,
    k: float,
    direction: int,
    lattice_wave: LatticeWave | None = None,
) -> PlaneWaveSolution:
    """Scattered-field solve for a unit plane wave from the left (+1) or right.

    The load is k^2 chi int_slab Phi_inc phi_i dx. Without ``lattice_wave``
    the incident wave is the analytic e^{i d k x}, integrated by
    ``fem.plane_wave_load`` with the element rule on the mesh's slab. With
    the +x wave of ``lattice_plane_wave(mesh, k)`` it is that wave (d = +1)
    or its complex conjugate (d = -1), and the load is the band product
    k^2 chi M_slab w with the M_slab of ``fem.static_bands``, from the
    wave's values on the mesh's ``slab_nodes`` alone: exactly what
    L - L_vac applies to the wave. The LU is ``fem.factorization``'s,
    shared with every other solve at this frequency on this mesh.
    """
    if direction not in (+1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction}")
    scale = k**2 * medium.susceptibility(k)
    if lattice_wave is None:
        incident = None
        f = plane_wave_load(mesh, scale, direction * k)
    else:
        if lattice_wave.mesh is not mesh or lattice_wave.k != k:
            raise ValueError(
                "lattice wave was built for a different mesh or k"
            )
        incident = lattice_wave
        f = static_bands(mesh).slab_load(
            scale, lattice_wave.values(mesh.slab_nodes, direction))
    dofs = factorization(mesh, medium, k).solve(f[1:-1])
    return PlaneWaveSolution(
        mesh=mesh,
        medium=medium,
        k=float(k),
        direction=direction,
        scattered=FieldSolution(mesh=mesh, k=float(k), dofs=dofs),
        incident=incident,
    )


def _outgoing_amplitude(solution: PlaneWaveSolution, side: int) -> complex:
    """Amplitude of the scattered lattice wave leaving the slab on one side.

    At the port (the node next to the wall, where ``fem.assemble`` puts
    the boundary's b rho) the scattered field is one outgoing lattice wave.
    Its value there is carried back to the slab face by the lattice phase
    sum kt_e h_e of the vacuum elements in between, kt_e found once per
    distinct element length (``Mesh1D.length_classes``): the mesh's own
    dispersion, so the vacuum gap adds no spurious phase. What the junctions
    between spans of unequal element length reflect is left out.
    """
    mesh = solution.mesh
    elements = mesh.slab_elements
    if side < 0:
        port, travel = 1, slice(1, elements.start)
    else:
        port, travel = mesh.n_nodes - 2, slice(elements.stop, -1)
    lengths, which = mesh.length_classes
    steps = lattice_wavenumber(solution.k, lengths) * lengths
    phase = np.sum(steps[which[travel]])
    return complex(solution.scattered.at_node(port) * np.exp(-1j * phase))


def extract_r_t(solution: PlaneWaveSolution) -> tuple[complex, complex]:
    """Reflection and transmission in the face (de-embedded port) convention.

    r is the reflected/incident amplitude ratio at the illuminated face,
    t the transmitted/incident ratio at the exit face, so an empty slab
    gives r = 0, t = 1 with no propagation phase. The slab is mirror
    symmetric, hence both incidence directions report the same values.
    The outgoing amplitudes are the scattered field at the two ports of
    the open mesh, carried back to the faces (``_outgoing_amplitude``), so
    any padding will do.
    """
    k, d = solution.k, solution.direction
    a = solution.mesh.slab_half_length
    back = _outgoing_amplitude(solution, -d)
    fwd = _outgoing_amplitude(solution, +d)
    # incident amplitude at either face is e^{-ika} (illuminated) and
    # e^{+ika} (exit); both expressions below are direction independent
    r = back * np.exp(1j * k * a)
    t = 1.0 + fwd * np.exp(-1j * k * a)
    return complex(r), complex(t)


@dataclass(frozen=True)
class EnergyBalance:
    flux_deficit: float  # 1 - |r|^2 - |t|^2
    absorbed: float  # k Im(chi) int_slab |Phi_tot|^2
    residual: float  # relative mismatch


def energy_balance(solution: PlaneWaveSolution) -> EnergyBalance:
    """Check that the missing flux equals the power dissipated in the slab."""
    mesh, medium, k = solution.mesh, solution.medium, solution.k
    r, t = extract_r_t(solution)
    deficit = 1.0 - abs(r) ** 2 - abs(t) ** 2

    static = static_bands(mesh)
    phi = solution.total_at(static.slab_points)
    chi_imag = medium.susceptibility(k).imag
    absorbed = k * chi_imag * float(
        np.sum(static.slab_weights * np.abs(phi) ** 2))
    # floor the scale so a lossless run (both sides ~ round-off) reads as a
    # tiny residual instead of 0/0 noise
    scale = max(abs(deficit), abs(absorbed), 1e-6)
    return EnergyBalance(
        flux_deficit=deficit,
        absorbed=absorbed,
        residual=abs(deficit - absorbed) / scale,
    )
