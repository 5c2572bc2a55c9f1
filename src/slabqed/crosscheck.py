"""The finite-element solvers measured against the transfer-matrix oracle.

``oracle`` shares no code with the FEM, so the comparison of the two lives
here rather than in either: three relative residuals per frequency, for a
whole frequency grid at once.

The grid is read in two passes. A loop over the frequencies does what
needs each frequency's LU (``fem.factorization``): the left-incident
scattering solve, its r and t (``scattering.extract_r_t``), the
point-source solve, and a gather of nodal values at the nodes that
bracket the probes and the Green-function samples, which are found once
per mesh (``fem.p1_stencil``). After the loop one array pass over the
grid interpolates those values, carries a probe past a port in closed
form, evaluates the oracle with an array of frequencies and forms the
residuals. The mesh need keep only the atom and the G samples, which lie
on the slab: on the A cases it ends at the slab face, and the probe at
x_B lies past its right port.

Numeric contract: every FEM-side value (r, t, the probe fields and the G
samples) is bitwise what the per-point readouts give (``extract_r_t``,
``FieldSolution`` and, for the probe fields, the total field of the
scattering state read one point at a time, whose reference lives in the
tests as ``tests/_dense_reference.total_at``), since the interpolation
is ``evaluate_field``'s own (np.interp's arithmetic), a probe past a port
is carried by ``fem.carried_past_port``, as that reference carries it,
and the solves are the same. The oracle works
one frequency as an array of one, in the arithmetic of a grid, so its
values are also those of one call per frequency, and each residual is
the per-frequency comparison's.
"""

from __future__ import annotations

import numpy as np

from .fem import carried_past_port, p1_stencil
from .greens import solve_point_source
from .medium import ATOM_INSIDE, ATOM_OUTSIDE, MediumSpec
from .mesh import Mesh1D
from .oracle import tmm_green, tmm_reflection_transmission, tmm_total_field
from .scattering import extract_r_t, solve_scattering

# the two atom sites, where the scattering state's total field is compared
PROBES = np.array([ATOM_INSIDE, ATOM_OUTSIDE])
# G(x, x_a) is compared at this many points evenly across the slab
GREEN_SAMPLES = 9


def green_samples(medium: MediumSpec) -> np.ndarray:
    """The points across the slab where G(x, x_a) is compared."""
    a = medium.slab_half_length
    return np.linspace(-a, a, GREEN_SAMPLES)


def fem_readouts(mesh: Mesh1D, medium: MediumSpec, omegas,
                 x_a: float):
    """(r, t, field, green) of the FEM on the frequency grid ``omegas``.

    r and t, each (m,), are the left-incident state's (``extract_r_t``);
    ``field`` (m, 2) is its total field at ``PROBES`` and ``green``
    (m, 9) G(x, x_a) at ``green_samples``, P1 readouts of the physical
    region (``p1_stencil``, which refuses a sample past a port). A probe
    past a port is the outgoing scattered wave plus the incident lattice
    wave, each carried from its port (``_probe_fields``).
    """
    omegas = np.asarray(omegas, dtype=float)
    # clipped, a probe past a port reads its port, exactly
    probes = p1_stencil(mesh, np.clip(PROBES, *mesh.physical_region))
    samples = p1_stencil(mesh, green_samples(medium))
    rt = np.empty((omegas.size, 2), dtype=complex)
    waves = np.empty((omegas.size,) + probes.nodes.shape, dtype=complex)
    scattered = np.empty_like(waves)
    at_samples = np.empty((omegas.size,) + samples.nodes.shape, dtype=complex)
    for i, omega in enumerate(omegas.tolist()):
        solution = solve_scattering(mesh, medium, omega, +1)
        rt[i] = extract_r_t(solution)
        waves[i] = solution.lu.wave(probes.nodes)
        scattered[i] = solution.scattered.dofs[probes.nodes]
        at_samples[i] = solve_point_source(
            mesh, medium, omega, x_a).dofs[samples.nodes]
        # the solution holds this frequency's LU: dropped here, the LU is
        # freed before the next one is built, as the mesh's slot intends
        del solution
    return (rt[:, 0], rt[:, 1],
            _probe_fields(mesh, omegas, probes, waves, scattered),
            samples(at_samples[:, 0], at_samples[:, 1]))


def _probe_fields(mesh: Mesh1D, omegas, probes, waves, scattered):
    """The total field at ``PROBES``, (m, 2), from the incident wave and
    the scattered field gathered at the ``probes`` stencil's nodes.

    In the physical region their sum is interpolated (``total_at_nodes``
    and ``p1_stencil``). Past a port the scattered field is the outgoing
    lattice wave and the incident wave continues at the wall's spacing,
    each carried from its port value (``fem.carried_past_port``).
    """
    total = waves + scattered
    field = probes(total[:, 0], total[:, 1])
    lo, hi = mesh.physical_region
    past = (PROBES < lo) | (PROBES > hi)
    if past.any():
        k, beyond = omegas[:, None], PROBES[past]
        port = probes(scattered[:, 0], scattered[:, 1])[:, past]
        field[:, past] = (carried_past_port(mesh, k, port, beyond)
                          + carried_past_port(mesh, k, waves[:, 0, past],
                                              beyond, +1))
    return field


def oracle_residuals(mesh: Mesh1D, medium: MediumSpec, omegas,
                     x_a: float) -> np.ndarray:
    """(res_rt, res_field, res_green) of the FEM against the oracle, one
    row per frequency of ``omegas``: an (m, 3) array.

    ``res_rt``: the worse of the r and t misses over max(|r|, |t|).
    ``res_field``: the total field of the left-incident scattering state
    at the two atom sites, over the larger of its peak and the unit drive.
    ``res_green``: G(x, x_a) at 9 points across the slab, over its peak.
    Every max propagates NaN, so a NaN reading gives a NaN residual.
    """
    r_fem, t_fem, field_fem, green_fem = fem_readouts(mesh, medium, omegas,
                                                      x_a)
    r_ref, t_ref = tmm_reflection_transmission(medium, omegas)
    scale = np.maximum(np.abs(r_ref), np.abs(t_ref))
    res_rt = np.maximum(np.abs(r_fem - r_ref), np.abs(t_fem - t_ref)) / scale

    field_ref = tmm_total_field(medium, omegas, +1, PROBES)
    # floor the scale at the unit incident amplitude: on resonance an
    # opaque slab shadows both probe points and the local field is
    # exponentially small, which would turn roundoff into a huge ratio
    scale_field = np.maximum(np.max(np.abs(field_ref), axis=1), 1.0)
    res_field = np.max(np.abs(field_fem - field_ref), axis=1) / scale_field

    green_ref = tmm_green(medium, omegas, green_samples(medium), x_a)
    res_green = (np.max(np.abs(green_fem - green_ref), axis=1)
                 / np.max(np.abs(green_ref), axis=1))
    return np.stack([res_rt, res_field, res_green], axis=1)
