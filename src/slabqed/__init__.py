"""One-dimensional emission-rate toolkit for a lossy dielectric slab.

Four independent routes to the spontaneous-emission rate of a point dipole
(on-site Green function, scattering plus noise-current quadrature, their
boundary/medium split, and an explicit oscillator-bath eigenmode expansion)
plus the discrete operator identities that tie them together.
"""

from .medium import (
    ATOM_INSIDE,
    ATOM_OUTSIDE,
    CASE_PRESETS,
    MediumSpec,
    case_preset,
)
from .mesh import Mesh1D, build_box_mesh, build_mesh
from .micromodes import BathConfig, build_gevp, diagonalize, purcell_from_modes
from .purcell import (
    PurcellRecord,
    compute_record,
    purcell_mesh,
    sweep,
    sweep_grid,
)

__version__ = "0.1.0"

__all__ = [
    "ATOM_INSIDE",
    "ATOM_OUTSIDE",
    "BathConfig",
    "CASE_PRESETS",
    "MediumSpec",
    "Mesh1D",
    "PurcellRecord",
    "build_box_mesh",
    "build_gevp",
    "build_mesh",
    "case_preset",
    "compute_record",
    "diagonalize",
    "purcell_from_modes",
    "purcell_mesh",
    "sweep",
    "sweep_grid",
    "__version__",
]
