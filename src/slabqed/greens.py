"""Point-source (Green function) solves and what the rate routes read of G.

The discrete Green function solves L g = e_src where e_src is the consistent
load of a delta at a mesh node: in weak form int g' v'/s - k^2 int eps s g v
= v(x_src), i.e. the column of L^{-1} at that node. Because L is complex
symmetric the discrete G inherits exact reciprocity, G(x, x') = G(x', x),
up to solver round-off; a residual helper quantifies that.

``sample_green`` reads what the rate routes need of one such solve: the
self value G(x_a, x_a) for the LDOS route and, for the medium route, the
slab integral of |G(x_a, .)|^2 as the band form g^H M_slab g over the
slab's nodes, exact for a P1 field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import FieldSolution, factorization, node_of, static_bands
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
    src = node_of(mesh, x_src)
    if src == 0 or src == mesh.n_nodes - 1:
        raise ValueError("source on a Dirichlet wall gives the zero field")
    dofs = np.zeros(mesh.n_nodes, dtype=complex)
    dofs[src] = 1.0
    factorization(mesh, medium, k).solve_in_place(dofs[1:-1])
    return FieldSolution(mesh=mesh, k=float(k), dofs=dofs)


@dataclass(frozen=True)
class GreenSamples:
    """What the LDOS and medium routes read of G(x_atom, .)."""

    k: float
    chi: complex  # chi(k) of the operator whose inverse G is
    x_atom: float
    self_value: complex  # G(x_atom, x_atom)
    slab_intensity: float  # int_slab |G(x_atom, x)|^2 dx


def sample_green(
    mesh: Mesh1D,
    medium: MediumSpec,
    k: float,
    x_atom: float,
) -> GreenSamples:
    """One point-source solve giving both G(x_a, x_a) and G(x_a, slab).

    Reciprocity of the complex-symmetric operator lets a single solve with
    the source at the atom stand in for a solve per slab point, which is
    the main performance lever of the frequency sweep. The slab integral
    of |G|^2 is the band form g^H M_slab g over the slab's nodes
    (``StaticBands.slab_inner``): the Gauss rule that built M_slab is exact
    for the P1 product, so this is the element rule's sum of |G|^2 at the
    slab's Gauss points, without interpolating G there. The samples carry
    the chi(k) the operator was built with, which the medium route reads.
    """
    field = solve_point_source(mesh, medium, k, x_atom)
    g = field.dofs[mesh.slab_nodes]
    return GreenSamples(
        k=float(k),
        chi=factorization(mesh, medium, k).chi,
        x_atom=float(x_atom),
        self_value=field.at_node(node_of(mesh, x_atom)),
        slab_intensity=static_bands(mesh).slab_inner(g, g).real,
    )


def reciprocity_residual(
    mesh: Mesh1D,
    medium: MediumSpec,
    k: float,
    x_a: float,
    x_b: float,
) -> float:
    """|G(a,b) - G(b,a)| / max(|G(a,b)|, |G(b,a)|) from two separate solves."""
    g_ab = solve_point_source(mesh, medium, k, x_b)
    g_ba = solve_point_source(mesh, medium, k, x_a)
    val_ab = g_ab.at_node(mesh.find_node(x_a))
    val_ba = g_ba.at_node(mesh.find_node(x_b))
    scale = max(abs(val_ab), abs(val_ba), 1e-300)
    return abs(val_ab - val_ba) / scale
