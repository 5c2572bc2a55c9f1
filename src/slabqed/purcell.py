"""Spontaneous-emission rates of a two-level atom, as Purcell factors.

Three routes share the per-frequency solves:

* local-density-of-states route: 2k Im G(x_a, x_a);
* split route: a boundary part from the two plane-wave scattering states
  plus a medium part from noise currents radiating out of the lossy slab;
* medium-only route: the medium part alone (what one gets by ignoring the
  fluctuations that enter from infinity).

Everything is normalized so the free-space rate is 1: with unit incident
amplitude the boundary part alone gives 1 in vacuum, and dipole strength,
permittivity and c drop out of the ratio.

The two scattering states are driven by the mesh's own lattice plane wave
(``Factorization.wave``), so incident and scattered parts share one
dispersion relation and do not slip in phase against each other. The
boundary part then equals the radiation channel of the LDOS (the flux
through the mesh's exact outgoing boundary) up to the LDOS route's own
vacuum lattice bias, O((kh)^2). The LU carries the wave as its nodal
phase, and ``compute_record`` reads its values only on the slab's nodes
(the loads, formed once for both directions) and at the atom's node (the
boundary part).

The medium part is 2k times the loss the slab adds to the operator,
-g^H Im(L - L_vac) g with g = G(x_a, .) (``GreenSamples.medium_loss``).
On P1 that is 2k^3 chi_I int_slab |G(x_a, x)|^2 dx, taken as the band form
k^2 chi_I g^H M_slab g over the slab's nodes: the Gauss rule that built
M_slab integrates the P1 product exactly, so no Gauss-point values of G
are formed.

Per frequency the routes share one operator and one matrix
factorization, which feeds three separate single-column solves (two plane
waves, one point source); each load is solved in place.
``fem.factorization`` keeps the LU, with the slab term the loads and the
medium loss read and the lattice wave the states are driven by, on the
mesh, and the sweep runs its frequencies in order, one LU at a time; the
atom's node is found once per sweep (``fem.node_of``). The identity
(ldos - medium) = boundary is the zero-separation thermal-balance
statement, so each sweep record carries its relative residual for free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import node_of
from .greens import GreenSamples, sample_green
from .medium import ATOM_INSIDE, ATOM_OUTSIDE, MediumSpec
from .mesh import Mesh1D, build_mesh
from .scattering import PlaneWaveSolution, solve_scattering


@dataclass(frozen=True)
class PurcellRecord:
    """Purcell factors of all methods at one transition frequency.

    pf_modified_ln is pf_b + pf_m by construction and pf_original_ln is an
    alias of pf_m; both equalities are exact, not approximate, and tests
    pin them bitwise.
    """

    omega_a: float
    x_a: float
    pf_sfa: float  # 2k Im G(x_a, x_a)
    pf_b: float  # boundary (plane-wave) part
    pf_m: float  # medium (noise-current) part
    pf_modified_ln: float  # pf_b + pf_m
    pf_original_ln: float  # pf_m alone
    tec_residual: float  # thermal-balance residual at (x_a, x_a)


def gamma_sfa(samples: GreenSamples) -> float:
    """Rate over free-space rate from the local density of states."""
    return 2.0 * samples.k * samples.self_value.imag


def gamma_boundary(
    sol_plus: PlaneWaveSolution, sol_minus: PlaneWaveSolution, x_a: float
) -> float:
    """Boundary part: half the summed intensity of the two scattering states.

    The two unit-amplitude lattice plane waves are the 1D stand-in for the
    angular spectrum entering from infinity; in vacuum each contributes
    1/2. ``compute_record`` forms the same sum at the atom's node.
    """
    if {sol_plus.direction, sol_minus.direction} != {+1, -1}:
        raise ValueError("need one solution per incidence direction")
    total = 0.0
    for sol in (sol_plus, sol_minus):
        total += abs(complex(sol.total_at(x_a))) ** 2
    return 0.5 * total


def gamma_medium(samples: GreenSamples) -> float:
    """Medium part: noise currents in the slab radiating to the atom.

    2k times the slab's loss -g^H Im(L - L_vac) g, which ``sample_green``
    reads from the operator; on P1 that is 2 k^3 chi_I int_slab
    |G(x_a, x)|^2 dx (the element rule's Gauss sum, exactly).
    """
    return 2.0 * samples.k * samples.medium_loss


def compute_record(
    mesh: Mesh1D,
    medium: MediumSpec,
    omega_a: float,
    x_a: float,
) -> PurcellRecord:
    """All Purcell factors at one frequency from one factorization.

    ``x_a`` must be a mesh node (``purcell_mesh`` makes it one). The
    boundary part reads the two scattering states' nodal values there:
    interpolation at a node returns the nodal value, so this is
    ``gamma_boundary`` of the same states to the last bit.
    """
    sol_plus = solve_scattering(mesh, medium, omega_a, +1)
    sol_minus = solve_scattering(mesh, medium, omega_a, -1)
    samples = sample_green(mesh, medium, omega_a, x_a)

    node = node_of(mesh, x_a)
    pf_sfa = gamma_sfa(samples)
    pf_b = 0.5 * sum(abs(sol.total_at_nodes(node)) ** 2
                     for sol in (sol_plus, sol_minus))
    pf_m = gamma_medium(samples)
    lhs = pf_sfa - pf_m
    tec = abs(lhs - pf_b) / max(abs(lhs), abs(pf_b), 1e-300)
    return PurcellRecord(
        omega_a=float(omega_a),
        x_a=float(x_a),
        pf_sfa=pf_sfa,
        pf_b=pf_b,
        pf_m=pf_m,
        pf_modified_ln=pf_b + pf_m,
        pf_original_ln=pf_m,
        tec_residual=tec,
    )


def sweep(
    mesh: Mesh1D,
    medium: MediumSpec,
    omegas,
    x_a: float,
) -> list[PurcellRecord]:
    """Frequency sweep; returns records sorted by transition frequency.

    Serial on purpose: the mesh keeps one LU, so each frequency's solves
    share it and the next frequency replaces it.
    """
    records = []
    for omega in sorted(float(w) for w in omegas):
        try:
            records.append(compute_record(mesh, medium, omega, x_a))
        except Exception as exc:
            note = f"sweep point omega_a = {omega}: {exc}"
            try:
                wrapped = type(exc)(note)
            except TypeError:
                wrapped = RuntimeError(note)
            raise wrapped from exc
    return records


def sweep_grid(lo: float = 300.0, hi: float = 700.0, n: int = 101) -> np.ndarray:
    """Default transition-frequency grid bracketing the resonance."""
    if not (lo > 0 and hi > lo and n >= 2):
        raise ValueError("need 0 < lo < hi and at least two grid points")
    return np.linspace(lo, hi, n)


def purcell_mesh(
    medium: MediumSpec,
    x_a: float,
    k_max: float = 700.0,
    ppw: float = 40.0,
    padding: float = 0.05,
) -> Mesh1D:
    """Standard sweep mesh: both atom sites are nodes regardless of x_a.

    An open mesh (``build_mesh``) cut to the hull of the slab and the
    atom sites, [min(-a, x_a), max(a, x_B, x_a)]: the exact outgoing
    boundary takes over one element beyond each end, at the spacing of
    the ``padding`` span it cuts. ``padding`` bounds the atom sites.
    """
    obs = sorted({ATOM_INSIDE, ATOM_OUTSIDE, float(x_a)})
    return build_mesh(medium, k_max, ppw, padding, observation_points=obs)
