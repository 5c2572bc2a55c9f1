"""1D meshes: an open domain or a closed box.

The open mesh covers the physical region [-(a + padding), +(a + padding)],
where a is the slab half-length, plus one element beyond each end of it.
Material interfaces, the region's ends and every requested observation
point are exact breakpoints; each span between breakpoints is subdivided
uniformly with the globally smallest element size, so requested points are
mesh nodes to the last bit. The element beyond each end has the length of
the padding span's elements, and its outer node is the Dirichlet wall:
the vacuum lattice continues past it, and ``fem.assemble`` folds that
semi-infinite lattice into the last physical node as its exact outgoing
condition. A wall node stands in for the field beyond and is never read
as a field value; the physical region of an open mesh ends at the nodes
next to its walls. A closed box is the region between its walls, which
are physical.

The mesh is the one place that knows where the slab lies: the slab is the
run of elements whose midpoint lies in (-a, a) (``Mesh1D.slab_elements``,
``slab_nodes``). Assembly, the slab loads and the slab integrals all read
these slices, so the plane-wave and point-source routes see one slab.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .medium import MediumSpec


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class Mesh1D:
    """Sorted nodes, the slab and the kind of boundary: all of the geometry.

    Attributes
    ----------
    nodes : (n,) float array, strictly increasing
    slab_half_length : a; the slab is [-a, a]
    is_open : True for an open mesh, whose boundary elements carry the
        outgoing condition of the vacuum beyond; False for a closed box
    physical_region : (lo, hi), the nodes next to the walls of an open
        mesh, the walls themselves of a closed box
    slab_elements : slice of the elements whose midpoint lies in (-a, a)
    slab_nodes : slice of their nodes (empty without a slab)

    The midpoints are sorted, so the slab is one run of elements; on an
    open mesh a slab that reaches a boundary element is refused, as the
    outgoing condition holds for vacuum there. The arrays are read-only
    copies, so the per-element arrays derived from them are computed once
    per mesh rather than once per solve.
    """

    def __init__(self, nodes, slab_half_length, is_open=False):
        self.nodes = _frozen(np.array(nodes, dtype=float))
        self.slab_half_length = a = float(slab_half_length)
        self.is_open = bool(is_open)
        if self.nodes.ndim != 1 or self.nodes.size < 3:
            raise ValueError("mesh needs at least 3 nodes")
        if self.is_open and self.nodes.size < 4:
            raise ValueError("an open mesh needs at least 4 nodes: two "
                             "walls and two distinct ports")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        ends = (1, -2) if self.is_open else (0, -1)
        self.physical_region = tuple(float(self.nodes[j]) for j in ends)
        mid = self.element_midpoints
        lo = int(np.searchsorted(mid, -a, "right"))
        hi = int(np.searchsorted(mid, a, "left"))
        self.slab_elements = slice(lo, hi)
        self.slab_nodes = slice(lo, hi + 1 if lo < hi else lo)
        if self.is_open and lo < hi and (lo == 0 or hi == mid.size):
            raise ValueError("the slab reaches the open boundary")

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @property
    def n_interior(self) -> int:
        """Unknowns after eliminating the two Dirichlet wall nodes."""
        return self.nodes.size - 2

    @cached_property
    def element_lengths(self):
        return _frozen(np.diff(self.nodes))

    @cached_property
    def element_midpoints(self):
        return _frozen(0.5 * (self.nodes[:-1] + self.nodes[1:]))

    @property
    def h_max(self) -> float:
        return float(self.element_lengths.max())

    def find_node(self, x: float, tol: float = 1e-9) -> int:
        """Index of the node at x; raises if no node is within tol.

        Bisection of the sorted nodes: the nearest is the last node below
        x or the first at or above it, the lower one on a tie, which is the
        node an argmin of |nodes - x| picks. A NaN x is refused.
        """
        nodes = self.nodes
        idx = int(np.searchsorted(nodes, x))
        if idx == nodes.size or (
                idx > 0 and abs(nodes[idx - 1] - x) <= abs(nodes[idx] - x)):
            idx -= 1
        if not abs(nodes[idx] - x) <= tol:
            raise ValueError(
                f"no mesh node at x = {x} (nearest is {nodes[idx]})"
            )
        return idx

    @cached_property
    def length_classes(self):
        """(distinct element lengths, the class of each element).

        Each span between breakpoints is filled uniformly, so a mesh has
        few distinct lengths (18 on the ppw-160 sweep mesh): work per
        length is done once per class and indexed back by element.
        """
        (lengths,), _, which = unique_columns(self.element_lengths[None])
        return _frozen(lengths), _frozen(which)


def unique_columns(table):
    """Distinct columns of a 2-D table, sorted, as np.unique(axis=1) gives.

    Returns (columns, first, inverse): the distinct columns in lexicographic
    order, the index of the first occurrence of each, and the position of
    every column among them. A stable lexsort and a neighbour mask stand
    in for np.unique, whose 1-D form imports numpy.ma (~25 ms) on its
    first call; a one-row table gives that 1-D case.
    """
    order = np.lexsort(table[::-1])
    ordered = table[:, order]
    starts = np.ones(order.size, dtype=bool)
    np.any(ordered[:, 1:] != ordered[:, :-1], axis=0, out=starts[1:])
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[:, starts], order[starts], inverse


def _fill_spans(breakpoints, h_target):
    """Uniformly subdivide each span; every breakpoint stays an exact node."""
    pieces = [np.array([breakpoints[0]])]
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        n_sub = max(1, math.ceil((hi - lo) / h_target - 1e-9))
        pieces.append(np.linspace(lo, hi, n_sub + 1)[1:])
    return np.concatenate(pieces)


def _dedupe(values, tol=1e-12):
    """Sorted breakpoints with exact repeats merged.

    Distinct breakpoints closer than tol are refused: merging them would
    move a requested point off its node, and keeping both would leave a
    sliver element.
    """
    (values,), _, _ = unique_columns(
        np.asarray(values, dtype=float).reshape(1, -1))
    close = np.flatnonzero(np.diff(values) <= tol)
    if close.size:
        i = close[0]
        raise ValueError(
            f"breakpoints {values[i]!r} and {values[i + 1]!r} are distinct "
            f"but closer than {tol:g}; request one of them"
        )
    return values


def _span_nodes(medium, k_max, points_per_wavelength, edge,
                observation_points, region):
    """Nodes over [-edge, edge], the slab faces and every point exact.

    Each span between breakpoints is filled uniformly with elements no
    longer than one ``points_per_wavelength``-th of the wavelength at
    ``k_max``. ``region`` names [-edge, edge] in the error for an
    observation point that does not lie strictly inside it.
    """
    if k_max <= 0:
        raise ValueError(f"k_max must be > 0, got {k_max}")
    if points_per_wavelength < 10:
        raise ValueError(
            "points_per_wavelength must be >= 10, got "
            f"{points_per_wavelength}"
        )
    obs = np.asarray(tuple(observation_points), dtype=float)
    if not np.all((obs > -edge) & (obs < edge)):  # NaN fails it too
        raise ValueError(
            f"observation points must lie strictly inside {region} "
            f"(-{edge}, {edge}); got {obs.tolist()}"
        )
    a = medium.slab_half_length
    h_target = 2.0 * math.pi / (k_max * points_per_wavelength)
    return _fill_spans(_dedupe(np.concatenate(([-edge, -a, a, edge], obs))),
                       h_target)


def build_mesh(
    medium: MediumSpec,
    k_max: float,
    points_per_wavelength: float,
    padding: float,
    observation_points=(),
) -> Mesh1D:
    """Open-domain mesh: wall | vacuum | slab | vacuum | wall.

    Parameters
    ----------
    medium : MediumSpec
        Fixes the slab extent [-a, +a].
    k_max : float
        Largest wavenumber the mesh will be used at; sets the element size.
    points_per_wavelength : float
        Nodes per free-space wavelength at k_max; must be at least 10.
    padding : float
        Vacuum gap between each slab face and the end of the physical
        region; one element of the gap's length lies beyond each end.
    observation_points : iterable of float, optional
        Positions that must coincide with mesh nodes exactly (atom sites,
        probe points). Must lie strictly inside the physical region.

    Returns
    -------
    Mesh1D
    """
    if padding <= 0:
        raise ValueError(f"padding must be > 0, got {padding}")
    nodes = _span_nodes(medium, k_max, points_per_wavelength,
                        medium.slab_half_length + padding,
                        observation_points, "the physical region")
    # the boundary elements: one more padding element beyond each end
    walls = (nodes[0] - (nodes[1] - nodes[0]),
             nodes[-1] + (nodes[-1] - nodes[-2]))
    return Mesh1D(np.concatenate(([walls[0]], nodes, [walls[1]])),
                  medium.slab_half_length, is_open=True)


def build_box_mesh(
    medium: MediumSpec,
    k_max: float,
    points_per_wavelength: float,
    box_length: float,
    observation_points=(),
) -> Mesh1D:
    """Closed Dirichlet box [-L/2, +L/2] with the slab centered.

    Used by the oscillator-bath eigenmode route, which needs a real symmetric
    operator. box_length must be at least four slab lengths so the slab does
    not dominate the cavity.
    """
    if box_length < 4.0 * medium.slab_length:
        raise ValueError(
            f"box_length must be >= 4 slab lengths "
            f"({4.0 * medium.slab_length}), got {box_length}"
        )
    return Mesh1D(_span_nodes(medium, k_max, points_per_wavelength,
                              0.5 * box_length, observation_points, "the box"),
                  medium.slab_half_length)
