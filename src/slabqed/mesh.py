"""1D meshes: an open domain or a closed box.

An open mesh is laid out over [-(a + padding), +(a + padding)], where a is
the slab half-length: material interfaces, the layout's ends and every
requested observation point are exact breakpoints, and each span between
breakpoints is subdivided uniformly with the globally smallest element
size, so requested points are layout nodes to the last bit. The mesh
keeps only the hull of the slab and the points it is cut around
(``build_mesh``'s ``hull_points``, by default every requested point),
[min(-a, obs), max(a, obs)], its physical region, plus one element of
the layout beyond each end of it: a contiguous slice of the layout, cut
from its spans before any node is laid out, so every kept node is the
layout's to the last bit. A requested point outside the hull still shapes
the spans, and so the element lengths, without being solved for. The
outer node of each end element is the Dirichlet wall, and the element
has the length of the uniform vacuum span it cuts: the vacuum lattice
continues past it at that spacing, and ``fem.assemble`` folds that
semi-infinite lattice into the last physical node, the port, as its exact
outgoing condition. Where the dropped vacuum is laid out at the wall's
length, as the padding beyond the outermost point is, eliminating it that
way is exact, and the cut moves results at round-off only. Where it is
not, as for a span between the hull and a point outside it, the wall's
length is that span's, and results move by the lattice's O((k h)^2)
reflection of the change. A wall node stands in for the field beyond and
is never read as a field value; past the ports ``fem.evaluate_field``
continues the field as the outgoing lattice wave. A closed box is the
region between its walls, which are physical.

The builders lay out each span between breakpoints as (start, h, count),
node j at start + j h, where np.linspace puts it. A closed box keeps those
spans (``Mesh1D.spans``): every element of a span has length h to the
last bit (``element_lengths``), so a span's rows of any band are bitwise
equal and the eigenmode count takes a box wall's span in closed form. An
open mesh keeps the differences of its nodes as its element lengths, one
span per element, as does a mesh given by its nodes alone (``_mesh`` says
why). The element counts are known before any node is allocated, so a
mesh above ``MAX_NODES`` nodes is refused, as is a layout whose
breakpoints nearly coincide or that leaves an observation point outside:
an ``InputError`` that names the inputs and breakpoints at fault. Each
such rule, the padded region's and the box's included, is written here
alone; the CLI turns the error into a config error.

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

# the most nodes a builder lays out: the stock meshes have 423 to 1,677
# nodes and the eigenmode box 997, so this refuses only a layout whose
# nodes alone would take tens of megabytes
MAX_NODES = 1_000_000
# the fewest points per wavelength a mesh is laid out with
MIN_PPW = 10


class InputError(ValueError):
    """An input that one of the library's rules refuses.

    ``inputs`` maps each input at fault, by the name of the refusing
    call's parameter, to its value. ``bound`` is (name, bound) for the
    input whose bound the rule states, such as ``("box_length", ">=
    0.25")``, or None. ``breakpoints`` holds the mesh breakpoints at
    fault: two that are distinct but too close, the ends of a mesh above
    ``MAX_NODES``, or observation points outside the layout. The message
    names the inputs, says what is wrong (after a colon when breakpoints
    are at fault) and then the bound; ``worded`` gives it under other
    names for the inputs, as the CLI gives config keys.
    """

    def __init__(self, why, inputs=(), bound=None, breakpoints=()):
        self.why, self.inputs, self.bound = why, dict(inputs), bound
        self.breakpoints = tuple(breakpoints)
        super().__init__(self.worded(", ".join(
            f"{name} = {value!r}" for name, value in self.inputs.items()),
            bound and bound[0]))

    def worded(self, named, bound_name):
        """The message naming ``named`` ("name = value, ...") as the
        inputs at fault and ``bound_name``, if any, as the bounded one."""
        text = f"{named}{': ' if self.breakpoints else ' '}{self.why}"
        tail = f"; {bound_name} must be {self.bound[1]}" if bound_name else ""
        return (text if named else self.why) + tail


# the name of its first use, a layout the mesh builders refuse
LayoutError = InputError


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
    spans : (start, h, count) of each run of elements, in order: count
        elements of length h from the node at start. A box from
        ``build_box_mesh`` has its exactly uniform spans; an open mesh,
        like a mesh given by its nodes alone, one span per element.

    The midpoints are sorted, so the slab is one run of elements; on an
    open mesh a slab that reaches a boundary element is refused, as the
    outgoing condition holds for vacuum there. The arrays are read-only
    copies, so the per-element arrays derived from them are computed once
    per mesh rather than once per solve.
    """

    def __init__(self, nodes, slab_half_length, is_open=False, spans=None):
        self.nodes = _frozen(np.array(nodes, dtype=float))
        self.slab_half_length = a = float(slab_half_length)
        self.is_open = bool(is_open)
        if self.nodes.ndim != 1 or self.nodes.size < 3:
            raise ValueError("mesh needs at least 3 nodes")
        if self.is_open and self.nodes.size < 4:
            raise ValueError("an open mesh needs at least 4 nodes: two "
                             "walls and two distinct ports")
        steps = np.diff(self.nodes)
        if np.any(steps <= 0):
            raise ValueError("nodes must be strictly increasing")
        if spans is None:
            self._spans = steps, np.ones(steps.size, dtype=np.intp)
        else:
            starts, lengths, counts = (np.array(column)
                                       for column in zip(*spans))
            self._spans = lengths.astype(float), counts.astype(np.intp)
            first = np.cumsum(counts) - counts
            # a span's nodes are start + j h, each within round-off of it
            slack = 8.0 * np.finfo(float).eps * np.abs(self.nodes).max()
            if not (counts.min() >= 1 and counts.sum() == steps.size
                    and np.array_equal(starts, self.nodes[first])
                    and np.all(np.abs(self.element_lengths - steps)
                               <= slack)):
                raise ValueError("spans must tile the nodes: each (start, "
                                 "h, count) starts on a node and steps by h")
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
    def spans(self):
        lengths, counts = self._spans
        first = np.cumsum(counts) - counts
        return tuple(zip(self.nodes[first].tolist(), lengths.tolist(),
                         counts.tolist()))

    @cached_property
    def element_lengths(self):
        """Each span's h, once per element of the span."""
        return _frozen(np.repeat(*self._spans))

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

        One class per distinct span h: 3 on the eigenmode box, 11 and 14
        on the stock sweep meshes at ppw 40 and 160, whose node
        differences spread each span's length over a few ulps. Work per
        length is done once per class and indexed back by element.
        """
        lengths, counts = self._spans
        (distinct,), _, which = unique_columns(lengths[None])
        return _frozen(distinct), _frozen(np.repeat(which, counts))


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


def _fill_spans(breakpoints, h_target, sized_by):
    """(start, h, count) of each span between consecutive breakpoints.

    count is the fewest elements no longer than h_target, and h = (hi -
    lo) / count: node j of a span is start + j h, where np.linspace puts
    it, and the next breakpoint is the next span's start, an exact node.
    ``sized_by`` names the inputs that set h_target, for the refusal of a
    span too long to count.
    """
    spans = []
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        length = float(hi - lo)
        ratio = length / h_target - 1e-9
        if not math.isfinite(ratio):
            raise InputError(
                f"the span [{float(lo)!r}, {float(hi)!r}] is too long to "
                f"lay out in elements of {h_target!r}", sized_by,
                breakpoints=(float(lo), float(hi)))
        count = max(1, math.ceil(ratio))
        spans.append((float(lo), length / count, count))
    return spans


def _nodes(spans, end):
    """start + j h for j < count over each span, then the last node."""
    return np.concatenate([start + np.arange(count) * h
                           for start, h, count in spans] + [[end]])


def _mesh(spans, end, slab_half_length, is_open=False):
    """The mesh of ``spans`` ending at node ``end``.

    An open mesh keeps the differences of its nodes as its element
    lengths, one span per element: the exact spans would move its elements
    by up to 1.6e-13 relative, and the transmission of an opaque slab (1B
    at omega 500, ppw 160) by ~1e-9 relative with them, so its committed
    bodies hold those differences. Nothing counts eigenvalues on it.
    """
    return Mesh1D(_nodes(spans, end), slab_half_length, is_open,
                  None if is_open else spans)


def _dedupe(values, tol=1e-12):
    """Sorted breakpoints with exact repeats merged.

    Distinct breakpoints closer than tol are refused (``InputError``):
    merging them would move a requested point off its node, and keeping
    both would leave a sliver element.
    """
    (values,), _, _ = unique_columns(
        np.asarray(values, dtype=float).reshape(1, -1))
    close = np.flatnonzero(np.diff(values) <= tol)
    if close.size:
        pair = float(values[close[0]]), float(values[close[0] + 1])
        raise InputError(
            f"breakpoints {pair[0]!r} and {pair[1]!r} are distinct but "
            f"closer than {tol:g}; request one of them", breakpoints=pair)
    return values


def _refuse_outside(obs, edge, region, size, need):
    """Refuse observation points not strictly inside ``region``, (-edge,
    edge). ``size`` is (name, value) of the input that sets edge, and
    ``need(reach)`` the least value it takes to hold points up to |x| =
    reach, which the error states as its bound."""
    outside = obs[~((obs > -edge) & (obs < edge))]  # NaN lies outside too
    if outside.size:
        reach = float(np.max(np.abs(outside)))
        raise InputError(
            f"observation points must lie strictly inside {region} "
            f"(-{edge}, {edge}); got {outside.tolist()}", [size],
            (size[0], f"> {need(reach)!r}") if math.isfinite(reach) else None,
            outside.tolist())


def check_resolution(points_per_wavelength):
    """Refuse a mesh of fewer than ``MIN_PPW`` points per wavelength, or
    NaN (``InputError``)."""
    if not points_per_wavelength >= MIN_PPW:
        raise InputError(
            f"is not >= {MIN_PPW}",
            {"points_per_wavelength": points_per_wavelength},
            ("points_per_wavelength", f">= {MIN_PPW}"))


def check_padded_region(points, slab_half_length, padding):
    """Refuse points that do not lie strictly inside the padded region
    (-(a + padding), a + padding) of an open mesh: an ``InputError`` that
    bounds ``padding``."""
    a = slab_half_length
    _refuse_outside(np.asarray(tuple(points), dtype=float), a + padding,
                    "the padded region", ("padding", padding),
                    lambda reach: reach - a)


def _layout(medium, k_max, points_per_wavelength, edge, obs, hull=None,
            extra=1):
    """Spans over [-edge, edge], the slab faces and every point on a node.

    Each span between breakpoints is filled uniformly with elements no
    longer than one ``points_per_wavelength``-th of the wavelength at
    ``k_max`` (``_fill_spans``); the last span ends at edge. A mesh of the
    spans starting in ``hull`` = [lo, hi), all of them by default, and
    ``extra`` nodes more is refused if it has more than ``MAX_NODES``
    nodes, before any is laid out.
    """
    if k_max <= 0:
        raise ValueError(f"k_max must be > 0, got {k_max}")
    check_resolution(points_per_wavelength)
    a = medium.slab_half_length
    h_target = 2.0 * math.pi / (k_max * points_per_wavelength)
    sized_by = {"k_max": k_max, "points_per_wavelength": points_per_wavelength}
    spans = _fill_spans(_dedupe(np.concatenate(([-edge, -a, a, edge], obs))),
                        h_target, sized_by)
    lo, hi = (-edge, edge) if hull is None else hull
    n_nodes = sum(count for start, _, count in spans if lo <= start < hi)
    if n_nodes + extra > MAX_NODES:
        raise InputError(
            f"a mesh over [{float(lo)!r}, {float(hi)!r}] needs "
            f"{n_nodes + extra:.4g} nodes, above the bound of {MAX_NODES:,}",
            sized_by, breakpoints=(float(lo), float(hi)))
    return spans


def build_mesh(
    medium: MediumSpec,
    k_max: float,
    points_per_wavelength: float,
    padding: float,
    observation_points=(),
    hull_points=None,
) -> Mesh1D:
    """Open-domain mesh: wall | vacuum | slab | vacuum | wall, cut to the hull.

    Parameters
    ----------
    medium : MediumSpec
        Fixes the slab extent [-a, +a].
    k_max : float
        Largest wavenumber the mesh will be used at; sets the element size.
    points_per_wavelength : float
        Nodes per free-space wavelength at k_max; must be at least 10.
    padding : float
        Vacuum gap between each slab face and the end of the layout, which
        bounds the observation points and sets the span whose element
        length the walls take.
    observation_points : iterable of float, optional
        Breakpoints of the layout (atom sites, probe points), each a layout
        node to the last bit. Must lie strictly inside (-(a + padding), a +
        padding).
    hull_points : iterable of float, optional
        The observation points the mesh is cut around, so they are its
        nodes; the others shape the layout's spans, and so its element
        lengths, but may lie past the ports. Default: all of them.

    Returns
    -------
    Mesh1D
        The layout's nodes from one element below min(-a, hull_points) to
        one element above max(a, hull_points); its physical region is that
        hull.
    """
    a = medium.slab_half_length
    obs = np.asarray(tuple(observation_points), dtype=float)
    check_padded_region(obs, a, padding)
    kept = obs if hull_points is None else tuple(map(float, hull_points))
    if not set(kept) <= set(obs.tolist()):
        raise ValueError("hull_points must be observation points")
    edge = a + padding
    lo, hi = min((-a, *kept)), max((a, *kept))
    spans = _layout(medium, k_max, points_per_wavelength, edge, obs, (lo, hi),
                    3)  # the hull's nodes and a wall beyond each end
    if not a < edge:  # a padding <= 0, or lost to round-off beside a
        raise InputError(
            f"a padding of {padding!r} is lost beside the slab half-length "
            f"{a!r}: the slab reaches the ends of the padded region",
            breakpoints=(-edge, edge))
    # the hull's ends are breakpoints strictly inside the layout, so span
    # starts with a layout node beyond each, the walls: the last node of
    # the span below the hull and the second of the span at its top, or
    # the next span's start if that span is one element long
    starts = [start for start, _, _ in spans]
    i, j = starts.index(lo), starts.index(hi)
    start, h, count = spans[i - 1]
    top, h_top, count_top = spans[j]
    end = (top + h_top if count_top > 1
           else spans[j + 1][0] if j + 1 < len(spans) else edge)
    return _mesh([(start + (count - 1) * h, h, 1), *spans[i:j],
                  (top, h_top, 1)], end, a, is_open=True)


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
    not dominate the cavity, and the observation points must lie strictly
    inside the box.
    """
    if not box_length >= 4.0 * medium.slab_length:
        raise InputError("is under 4 slab lengths", {"box_length": box_length},
                         ("box_length", f">= {4.0 * medium.slab_length!r}"))
    edge = 0.5 * box_length
    obs = np.asarray(tuple(observation_points), dtype=float)
    _refuse_outside(obs, edge, "the box", ("box_length", box_length),
                    lambda reach: 2.0 * reach)
    spans = _layout(medium, k_max, points_per_wavelength, edge, obs)
    return _mesh(spans, edge, medium.slab_half_length)
