"""1D meshes: open domain with absorbing layers, or a closed box.

The open mesh covers [-(a + padding + d), +(a + padding + d)] where a is the
slab half-length and d the absorbing-layer thickness. Material interfaces,
layer interfaces and every requested observation point are exact breakpoints;
each span between breakpoints is subdivided uniformly with the globally
smallest element size, so requested points are mesh nodes to the last bit.

The absorbing layer is a complex coordinate stretch
``s(x, k) = 1 + (i/k) sigma(x)`` with a polynomial profile
``sigma(x) = sigma_max (depth/d)^m``; sigma_max is chosen from a nominal
round-trip reflection R_0 via ``sigma_max = (m+1) ln(1/R_0) / (2 d)``. The
stretch enters assembly as 1/s on gradient terms and s on value terms.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .medium import MediumSpec


class Region(enum.IntEnum):
    PML_LEFT = 0
    VACUUM = 1
    SLAB = 2
    PML_RIGHT = 3


@dataclass(frozen=True)
class PmlSpec:
    """Absorbing-layer parameters (thickness in meters)."""

    thickness: float
    grading_order: int = 3
    nominal_reflection: float = 1e-10

    def __post_init__(self) -> None:
        if self.thickness <= 0:
            raise ValueError(f"thickness must be > 0, got {self.thickness}")
        if self.grading_order < 1:
            raise ValueError(
                f"grading_order must be >= 1, got {self.grading_order}"
            )
        if not 0 < self.nominal_reflection < 1:
            raise ValueError(
                "nominal_reflection must be in (0, 1), got "
                f"{self.nominal_reflection}"
            )

    @property
    def sigma_max(self) -> float:
        return (self.grading_order + 1) * math.log(
            1.0 / self.nominal_reflection
        ) / (2.0 * self.thickness)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class Mesh1D:
    """Sorted nodes plus per-element region tags.

    Attributes
    ----------
    nodes : (n,) float array, strictly increasing
    element_region : (n-1,) int array of Region values
    pml : PmlSpec or None (None for the closed box)
    x_inner_left, x_inner_right : inner edges of the absorbing layers
        (equal to the domain ends when there is no layer)

    The arrays are read-only copies, so the per-element arrays derived from
    them are computed once per mesh rather than once per solve.
    """

    def __init__(self, nodes, element_region, pml, slab_half_length):
        self.nodes = _frozen(np.array(nodes, dtype=float))
        self.element_region = _frozen(
            np.array(element_region, dtype=np.int8))
        self.pml = pml
        self.slab_half_length = float(slab_half_length)
        if self.nodes.ndim != 1 or self.nodes.size < 3:
            raise ValueError("mesh needs at least 3 nodes")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if self.element_region.shape != (self.nodes.size - 1,):
            raise ValueError("need one region tag per element")
        if pml is not None:
            self.x_inner_left = self.nodes[0] + pml.thickness
            self.x_inner_right = self.nodes[-1] - pml.thickness
        else:
            self.x_inner_left = self.nodes[0]
            self.x_inner_right = self.nodes[-1]

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

    def stretch_factor(self, x, k: float):
        """Complex stretch s(x, k); exactly 1 outside the absorbing layers."""
        x = np.asarray(x, dtype=float)
        s = np.ones(x.shape, dtype=complex)
        if self.pml is not None:
            d = self.pml.thickness
            m = self.pml.grading_order
            smax = self.pml.sigma_max
            depth_l = np.clip(self.x_inner_left - x, 0.0, d)
            depth_r = np.clip(x - self.x_inner_right, 0.0, d)
            depth = depth_l + depth_r  # at most one side is nonzero
            s += (1j / k) * smax * (depth / d) ** m
        return s if s.ndim else complex(s)

    def find_node(self, x: float, tol: float = 1e-9) -> int:
        """Index of the node at x; raises if no node is within tol."""
        idx = int(np.argmin(np.abs(self.nodes - x)))
        if abs(self.nodes[idx] - x) > tol:
            raise ValueError(
                f"no mesh node at x = {x} (nearest is {self.nodes[idx]})"
            )
        return idx

    def slab_element_indices(self):
        return self._slab_elements

    @cached_property
    def _slab_elements(self):
        return _frozen(np.flatnonzero(self.element_region == Region.SLAB))


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
    # sort and drop equal neighbours: np.unique would import numpy.ma
    values = np.sort(np.asarray(values, dtype=float), axis=None)
    values = np.delete(values, np.flatnonzero(values[1:] == values[:-1]) + 1)
    close = np.flatnonzero(np.diff(values) <= tol)
    if close.size:
        i = close[0]
        raise ValueError(
            f"breakpoints {values[i]!r} and {values[i + 1]!r} are distinct "
            f"but closer than {tol:g}; request one of them"
        )
    return values


def _tag_elements(nodes, region_edges):
    """Region of each element from its midpoint.

    region_edges maps each Region to an open (lo, hi) interval whose ends are
    breakpoints (hence exact nodes); later entries override earlier ones, so
    listing SLAB after VACUUM carves the slab out of the physical region.
    """
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    tags = np.full(mid.size, -1, dtype=np.int8)
    for region, (lo, hi) in region_edges.items():
        mask = (mid > lo) & (mid < hi)
        tags[mask] = region
    if np.any(tags < 0):
        raise AssertionError("untagged element; breakpoints inconsistent")
    return tags


def build_mesh(
    medium: MediumSpec,
    k_max: float,
    points_per_wavelength: float,
    padding: float,
    pml: PmlSpec,
    observation_points=(),
) -> Mesh1D:
    """Open-domain mesh: PML | vacuum | slab | vacuum | PML.

    Parameters
    ----------
    medium : MediumSpec
        Fixes the slab extent [-a, +a].
    k_max : float
        Largest wavenumber the mesh will be used at; sets the element size.
    points_per_wavelength : float
        Nodes per free-space wavelength at k_max; must be at least 10.
    padding : float
        Vacuum gap between each slab face and the absorbing layer.
    pml : PmlSpec
        Absorbing-layer recipe, applied symmetrically on both ends.
    observation_points : iterable of float, optional
        Positions that must coincide with mesh nodes exactly (atom sites,
        probe points). Must lie strictly inside the physical region.

    Returns
    -------
    Mesh1D
    """
    if k_max <= 0:
        raise ValueError(f"k_max must be > 0, got {k_max}")
    if points_per_wavelength < 10:
        raise ValueError(
            "points_per_wavelength must be >= 10, got "
            f"{points_per_wavelength}"
        )
    if padding <= 0:
        raise ValueError(f"padding must be > 0, got {padding}")

    a = medium.slab_half_length
    inner = a + padding
    outer = inner + pml.thickness
    obs = np.asarray(tuple(observation_points), dtype=float)
    if obs.size and (np.min(obs) <= -inner or np.max(obs) >= inner):
        raise ValueError(
            "observation points must lie strictly inside the physical "
            f"region (-{inner}, {inner}); got {obs.tolist()}"
        )

    h_target = 2.0 * math.pi / (k_max * points_per_wavelength)
    breakpoints = _dedupe(
        np.concatenate(([-outer, -inner, -a, a, inner, outer], obs))
    )
    nodes = _fill_spans(breakpoints, h_target)
    tags = _tag_elements(
        nodes,
        {
            Region.PML_LEFT: (-outer, -inner),
            Region.VACUUM: (-inner, inner),  # provisional; slab overrides
            Region.SLAB: (-a, a),
            Region.PML_RIGHT: (inner, outer),
        },
    )
    return Mesh1D(nodes, tags, pml, a)


def build_box_mesh(
    medium: MediumSpec,
    k_max: float,
    points_per_wavelength: float,
    box_length: float,
    observation_points=(),
) -> Mesh1D:
    """Closed Dirichlet box [-L/2, +L/2] with the slab centered, no PML.

    Used by the oscillator-bath eigenmode route, which needs a real symmetric
    operator. box_length must be at least four slab lengths so the slab does
    not dominate the cavity.
    """
    if k_max <= 0:
        raise ValueError(f"k_max must be > 0, got {k_max}")
    if points_per_wavelength < 10:
        raise ValueError(
            "points_per_wavelength must be >= 10, got "
            f"{points_per_wavelength}"
        )
    if box_length < 4.0 * medium.slab_length:
        raise ValueError(
            f"box_length must be >= 4 slab lengths "
            f"({4.0 * medium.slab_length}), got {box_length}"
        )
    half = 0.5 * box_length
    a = medium.slab_half_length
    obs = np.asarray(tuple(observation_points), dtype=float)
    if obs.size and (np.min(obs) <= -half or np.max(obs) >= half):
        raise ValueError(
            f"observation points must lie strictly inside (-{half}, {half})"
        )

    h_target = 2.0 * math.pi / (k_max * points_per_wavelength)
    breakpoints = _dedupe(np.concatenate(([-half, -a, a, half], obs)))
    nodes = _fill_spans(breakpoints, h_target)
    tags = _tag_elements(
        nodes,
        {
            Region.VACUUM: (-half, half),
            Region.SLAB: (-a, a),
        },
    )
    return Mesh1D(nodes, tags, None, a)
