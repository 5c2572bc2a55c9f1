"""Plane-wave scattering off the slab in the scattered-field formulation.

The total field is an incident wave (d = +-1, unit amplitude, absolute
phase referenced at x = 0) plus a scattered part solved on the mesh:
L phi_sca = (L_vac - L) Phi_inc, where L_vac is the operator with an
empty slab, so L_vac - L lives on the slab's nodes alone. The incident
wave is the vacuum lattice's own plane wave, nodal values e^{i d theta},
interpolated as P1: what the vacuum mesh itself carries (L_vac annihilates
it), so incident and scattered parts share one dispersion relation. The
operator defines it, with the same kt as its outgoing boundary, and the
LU of ``fem.factorization`` keeps it (``Factorization.phase`` and
``Factorization.wave``): its values are formed only where they are read,
on the slab's nodes for the load (once for both directions) and at the
nodes asked of ``total_at_nodes``. Between nodes the total field is the
P1 interpolant of those values (``fem.p1_stencil``), as ``crosscheck``
reads it at its probes.

The scattered field is outgoing, and the mesh's exact outgoing boundary
lets it leave without reflection; fields are never read at the mesh's
wall nodes: past a port the scattered part is the outgoing lattice wave
and the incident wave continues at the wall's lattice spacing, in closed
form (``fem.lattice_hops``). Scattering states exist on an open
mesh only: a closed box has no outgoing boundary, its walls reflect
whatever the slab scatters, and its LU has no incident wave, so
``solve_scattering`` refuses it. The solve takes its LU, its load
(``Factorization.incident_load``) and its incident wave from
``fem.factorization`` and solves in place (``Factorization.solve``), so
both directions and the point-source solves at one frequency share one
factorization, and each solution carries the LU it was solved with. The
power a state loses in the slab is read from that LU
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

from .fem import FieldSolution, factorization
from .medium import MediumSpec
from .mesh import Mesh1D


@dataclass(frozen=True)
class PlaneWaveSolution:
    direction: int
    scattered: FieldSolution  # with the mesh and k
    lu: object  # the fem.factorization solved with, and its lattice wave

    def total_at_nodes(self, nodes):
        """Incident + scattered at ``nodes`` (an index, a slice or an index
        array); a complex for one index."""
        total = (self.lu.wave(nodes, self.direction)
                 + self.scattered.dofs[nodes])
        return total if total.ndim else complex(total)


def solve_scattering(
    mesh: Mesh1D,
    medium: MediumSpec,
    k: float,
    direction: int,
) -> PlaneWaveSolution:
    """Scattered-field solve for a unit plane wave from the left (+1) or right.

    The incident wave is the LU's lattice wave toward +x (d = +1) or its
    complex conjugate (d = -1). The load is (L_vac - L) w
    (``Factorization.incident_load``), from the wave's values on the
    mesh's ``slab_nodes`` alone. The LU is ``fem.factorization``'s,
    shared with every other solve at this frequency on this mesh. The
    load vector is solved in place (``Factorization.solve``). A closed box has no
    incident wave, since its walls reflect what the slab scatters, and is
    refused.
    """
    if direction not in (+1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction}")
    lu = factorization(mesh, medium, k)
    dofs = lu.incident_load(direction)
    lu.solve(dofs[1:-1])
    dofs[0] = dofs[-1] = 0.0  # Dirichlet walls, whatever the load put there
    return PlaneWaveSolution(
        direction=direction,
        scattered=FieldSolution(mesh=mesh, k=float(k), dofs=dofs),
        lu=lu,
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
    the ports may lie on the faces themselves, as they do where the mesh
    ends at the slab.
    """
    mesh = solution.scattered.mesh
    d, theta = solution.direction, solution.lu.phase
    u = solution.scattered.dofs
    (back, fwd), faces = (1, mesh.n_nodes - 2), mesh.slab_nodes
    face_in = faces.start
    if d < 0:
        back, fwd, face_in = fwd, back, faces.stop - 1
    r = u[back] * np.exp(1j * d * (theta[back] - 2.0 * theta[face_in]))
    t = 1.0 + u[fwd] * np.exp(-1j * d * theta[fwd])
    return complex(r), complex(t)
