"""Point-source (Green function) solves and what the rate routes read of G.

The discrete Green function solves L g = e_src where e_src is the consistent
load of a delta at a mesh node: in weak form int g' v'/s - k^2 int eps s g v
= v(x_src), i.e. the column of L^{-1} at that node. Because L is complex
symmetric the discrete G inherits exact reciprocity, G(x, x') = G(x', x),
up to solver round-off.

``sample_green`` reads what the rate routes need of one such solve: the
self value G(x_a, x_a) for the LDOS route and, for the medium route, the
loss the slab adds to the operator, -g^H Im(L - L_vac) g with g =
G(x_a, .) over the slab's nodes (``Factorization.slab_loss``), read from
the LU the solve used; on P1 it is k^2 chi_I int_slab |G|^2, exact for a
P1 field. The solve is the kept LU's ``Factorization.solve``, in place on
the interior rows of the nodal vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import FieldSolution, factorization, node_of
from .medium import MediumSpec
from .mesh import Mesh1D


def solve_point_source(
    mesh: Mesh1D,
    medium: MediumSpec,
    k: float,
    x_src: float,
) -> FieldSolution:
    """G(x, x_src) as a nodal field; x_src must coincide with a mesh node.

    The unit load is solved in place on the interior rows of the nodal
    vector, whose walls stay zero.
    """
    dofs = point_load(mesh, x_src)
    factorization(mesh, medium, k).solve(dofs[1:-1])
    return FieldSolution(mesh=mesh, k=float(k), dofs=dofs)


def point_load(mesh: Mesh1D, x_src: float) -> np.ndarray:
    """The unit load of a point source at the node x_src, one value per
    mesh node; a source on a Dirichlet wall, whose field is zero, is
    refused."""
    src = node_of(mesh, x_src)
    if src == 0 or src == mesh.n_nodes - 1:
        raise ValueError("source on a Dirichlet wall gives the zero field")
    dofs = np.zeros(mesh.n_nodes, dtype=complex)
    dofs[src] = 1.0
    return dofs


@dataclass(frozen=True)
class GreenSamples:
    """What the LDOS and medium routes read of G(x_atom, .)."""

    k: float
    x_atom: float
    self_value: complex  # G(x_atom, x_atom)
    medium_loss: float  # -g^H Im(L - L_vac) g, g = G(x_atom, .) on the slab


def sample_green(
    mesh: Mesh1D,
    medium: MediumSpec,
    k: float,
    x_atom: float,
) -> GreenSamples:
    """One point-source solve giving both G(x_a, x_a) and G(x_a, slab).

    Reciprocity of the complex-symmetric operator lets a single solve with
    the source at the atom stand in for a solve per slab point, which is
    the main performance lever of the frequency sweep. The medium loss is
    the operator's slab loss of g with itself (``Factorization.slab_loss``),
    on P1 k^2 chi_I g^H M_slab g: the Gauss rule that built M_slab is exact
    for the P1 product, so this is the element rule's sum of |G|^2 at the
    slab's Gauss points, without interpolating G there.
    """
    field = solve_point_source(mesh, medium, k, x_atom)
    g = field.dofs[mesh.slab_nodes]
    return GreenSamples(
        k=float(k),
        x_atom=float(x_atom),
        self_value=field.at_node(node_of(mesh, x_atom)),
        medium_loss=factorization(mesh, medium, k).slab_loss(g, g).real,
    )

