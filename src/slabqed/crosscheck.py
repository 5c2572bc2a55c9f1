"""The finite-element solvers measured against the transfer-matrix oracle.

``oracle`` shares no code with the FEM, so the comparison of the two lives
here rather than in either: one frequency, three relative residuals.
"""

from __future__ import annotations

import numpy as np

from .greens import solve_point_source
from .medium import ATOM_INSIDE, ATOM_OUTSIDE, MediumSpec
from .mesh import Mesh1D
from .oracle import tmm_green, tmm_reflection_transmission, tmm_total_field
from .scattering import extract_r_t, solve_scattering


def oracle_residuals(mesh: Mesh1D, medium: MediumSpec, omega: float,
                     x_a: float) -> tuple[float, float, float]:
    """(res_rt, res_field, res_green) of the FEM against the oracle at omega.

    ``res_rt``: the worse of the r and t misses over max(|r|, |t|).
    ``res_field``: the total field of the left-incident scattering state
    at the two atom sites, over the larger of its peak and the unit drive.
    ``res_green``: G(x, x_a) at 9 points across the slab, over its peak.
    """
    solution = solve_scattering(mesh, medium, omega, +1)
    r_fem, t_fem = extract_r_t(solution)
    r_ref, t_ref = tmm_reflection_transmission(medium, omega)
    scale = max(abs(r_ref), abs(t_ref))
    res_rt = max(abs(r_fem - r_ref), abs(t_fem - t_ref)) / scale

    probes = np.array([ATOM_INSIDE, ATOM_OUTSIDE])
    fem_field = solution.total_at(probes)
    tmm_field = tmm_total_field(medium, omega, +1, probes)
    # floor the scale at the unit incident amplitude: on resonance an
    # opaque slab shadows both probe points and the local field is
    # exponentially small, which would turn roundoff into a huge ratio
    scale_field = max(float(np.max(np.abs(tmm_field))), 1.0)
    res_field = float(np.max(np.abs(fem_field - tmm_field))) / scale_field

    sample = np.linspace(-medium.slab_half_length,
                         medium.slab_half_length, 9)
    g_fem = solve_point_source(mesh, medium, omega, x_a)(sample)
    g_tmm = tmm_green(medium, omega, sample, x_a)
    res_green = float(np.max(np.abs(g_fem - g_tmm)) / np.max(np.abs(g_tmm)))
    return res_rt, res_field, res_green
