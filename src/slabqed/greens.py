"""Point-source (Green function) solves and slab quadrature sampling.

The discrete Green function solves L g = e_src where e_src is the consistent
load of a delta at a mesh node: in weak form int g' v'/s - k^2 int eps s g v
= v(x_src), i.e. the column of L^{-1} at that node. Because L is complex
symmetric the discrete G inherits exact reciprocity, G(x, x') = G(x', x),
up to solver round-off; a residual helper quantifies that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import FieldSolution, factorization, slab_rule
from .medium import MediumSpec
from .mesh import Mesh1D


def solve_point_source(
    mesh: Mesh1D,
    medium: MediumSpec,
    k: float,
    x_src: float,
) -> FieldSolution:
    """G(x, x_src) as a nodal field; x_src must coincide with a mesh node."""
    src = mesh.find_node(x_src)
    if src == 0 or src == mesh.n_nodes - 1:
        raise ValueError("source on a Dirichlet wall gives the zero field")
    rhs = np.zeros(mesh.n_interior, dtype=complex)
    rhs[src - 1] = 1.0
    dofs = factorization(mesh, medium, k).solve(rhs)
    return FieldSolution(mesh=mesh, k=float(k), dofs=dofs)


def slab_quadrature(mesh: Mesh1D) -> tuple[np.ndarray, np.ndarray]:
    """Gauss points and weights covering the slab, element by element.

    Flat read-only views of the mesh's cached ``fem.slab_rule``, built
    once per mesh. The weights sum to the slab length exactly (up to
    round-off); for the standard slab of half-length 1/32 that is
    1/16 = 0.0625.
    """
    rule = slab_rule(mesh)
    if rule.points.size == 0:
        raise ValueError("mesh has no slab elements")
    return rule.points.ravel(), rule.weights.ravel()


@dataclass(frozen=True)
class GreenSamples:
    """G(x_atom, .) sampled where the noise-current quadrature needs it."""

    k: float
    x_atom: float
    self_value: complex  # G(x_atom, x_atom)
    points: np.ndarray  # quadrature points inside the slab
    weights: np.ndarray  # matching weights, summing to the slab length
    values: np.ndarray  # G(x_atom, points)


def sample_green(
    mesh: Mesh1D,
    medium: MediumSpec,
    k: float,
    x_atom: float,
) -> GreenSamples:
    """One point-source solve giving both G(x_a, x_a) and G(x_a, slab).

    Reciprocity of the complex-symmetric operator lets a single solve with
    the source at the atom stand in for a solve per slab point, which is
    the main performance lever of the frequency sweep.
    """
    field = solve_point_source(mesh, medium, k, x_atom)
    xq, wq = slab_quadrature(mesh)
    return GreenSamples(
        k=float(k),
        x_atom=float(x_atom),
        self_value=field.at_node(mesh.find_node(x_atom)),
        points=xq,
        weights=wq,
        values=field(xq),
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
