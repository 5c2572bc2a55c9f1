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
phase, and a sweep reads its values only on the slab's nodes (the loads,
formed once for both directions) and at the atom's node (the boundary
part).

The medium part is 2k times the loss the slab adds to the operator,
-g^H Im(L - L_vac) g with g = G(x_a, .) (``Factorization.slab_loss``).
On P1 that is 2k^3 chi_I int_slab |G(x_a, x)|^2 dx, taken as the band form
k^2 chi_I g^H M_slab g over the slab's nodes: the Gauss rule that built
M_slab integrates the P1 product exactly, so no Gauss-point values of G
are formed.

Per frequency the routes share one operator and one matrix
factorization, which feeds three separate single-column solves (two plane
waves, one point source); each load is solved in place. The sweep takes
its frequencies in order, in blocks of ``fem.block_size``: per block one
array pass (``fem.assemble``) forms every frequency's system, its
operator and the inputs of its LU; per frequency its LU is built from its
system and kept on the mesh in place of the last one
(``fem.factorization``), the three solves follow on it, and the three
rates are read as scalars (``_record``). The systems stay with the
sweep: the mesh keeps no block. numpy's ``np.abs`` and ``x**2`` may
round apart from Python's, so no readout is an array pass, and every
record is bitwise the one of its frequency swept alone. The atom's node
is found once per sweep (``fem.node_of``). The identity (ldos - medium)
= boundary is the zero-separation thermal-balance statement, so each
sweep record carries its relative residual for free. ``compute_record``
is a one-point sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import SystemMatrices, assemble, block_size, factorization, node_of
from .greens import point_load
from .medium import ATOM_INSIDE, ATOM_OUTSIDE, MediumSpec
from .mesh import Mesh1D, build_mesh


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


def _record(mesh: Mesh1D, medium: MediumSpec, omega_a: float, x_a: float,
            system: SystemMatrices | None) -> PurcellRecord:
    """All Purcell factors at one frequency, from one factorization.

    The frequency's LU is built from its ``system`` of a block, or from
    its operator assembled alone for None, and kept on the mesh
    (``fem.factorization``). Three single-column solves follow on it,
    each load solved in place: the scattering states driven by the unit
    lattice wave toward +x and toward -x (``Factorization.incident_load``,
    refused on a closed box) and the point source at the atom's node
    (``greens.point_load``, refused on a wall). The rates are then read as
    scalars at k = ``omega_a``:

    * pf_sfa = 2k Im G(x_a, x_a), the LDOS;
    * pf_b = (|Phi_+(x_a)|^2 + |Phi_-(x_a)|^2) / 2, half the summed
      intensity of the two states, incident wave plus scattered field, at
      the atom's node: the two unit plane waves are the 1D stand-in for the
      angular spectrum entering from infinity, and in vacuum each gives 1/2;
    * pf_m = 2k times the slab's loss -g^H Im(L - L_vac) g of g =
      G(x_a, .) (``Factorization.slab_loss``), on P1 2k^3 chi_I int_slab
      |G(x_a, x)|^2 dx, the element rule's Gauss sum exactly.
    """
    lu = factorization(mesh, medium, omega_a, system)
    plus, minus = lu.incident_load(+1), lu.incident_load(-1)
    lu.solve(plus[1:-1])
    lu.solve(minus[1:-1])
    green = point_load(mesh, x_a)
    lu.solve(green[1:-1])
    node, g = node_of(mesh, x_a), green[mesh.slab_nodes]

    pf_sfa = 2.0 * omega_a * complex(green[node]).imag
    pf_b = 0.5 * (abs(complex(lu.wave(node, +1) + plus[node])) ** 2
                  + abs(complex(lu.wave(node, -1) + minus[node])) ** 2)
    pf_m = 2.0 * omega_a * lu.slab_loss(g, g).real
    lhs = pf_sfa - pf_m
    tec = abs(lhs - pf_b) / max(abs(lhs), abs(pf_b), 1e-300)
    return PurcellRecord(
        omega_a=omega_a,
        x_a=float(x_a),
        pf_sfa=pf_sfa,
        pf_b=pf_b,
        pf_m=pf_m,
        pf_modified_ln=pf_b + pf_m,
        pf_original_ln=pf_m,
        tec_residual=tec,
    )


def compute_record(
    mesh: Mesh1D,
    medium: MediumSpec,
    omega_a: float,
    x_a: float,
) -> PurcellRecord:
    """All Purcell factors at one frequency: a one-point ``sweep``.

    ``x_a`` must be a mesh node (``purcell_mesh`` makes it one).
    """
    return sweep(mesh, medium, [omega_a], x_a)[0]


def sweep(
    mesh: Mesh1D,
    medium: MediumSpec,
    omegas,
    x_a: float,
) -> list[PurcellRecord]:
    """Frequency sweep; returns records sorted by transition frequency.

    Serial on purpose: the frequencies run in order, in blocks of
    ``fem.block_size``, each assembled in one array pass, and the mesh
    keeps one LU, built from the frequency's system, so each frequency's
    solves share it and the next frequency replaces it. A block that
    cannot be assembled whole is swept one k at a time, each assembled
    alone, so the first k at fault is refused by itself, after the ones
    before it. An error names the frequency it is at.
    """
    omegas = sorted(float(w) for w in omegas)
    size = block_size(mesh)
    records = []
    for start in range(0, len(omegas), size):
        block = omegas[start:start + size]
        try:
            systems = assemble(mesh, medium, np.array(block))
        except ValueError:
            systems = [None] * len(block)
        for omega, system in zip(block, systems):
            try:
                records.append(_record(mesh, medium, omega, x_a, system))
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
    """Standard sweep mesh: x_a is a node, and both preset atom sites are
    breakpoints of the layout regardless of x_a.

    An open mesh (``build_mesh``) cut to the hull of the slab and x_a,
    [min(-a, x_a), max(a, x_a)], the points a sweep solves for: the exact
    outgoing boundary takes over one element beyond each end, at the
    spacing of the span it cuts, so an atom at the slab center gets a mesh
    that ends at the slab faces, with x_B past its right port. The preset
    sites still set the layout's spans, and so every element length, and
    ``padding`` bounds them and x_a.
    """
    obs = sorted({ATOM_INSIDE, ATOM_OUTSIDE, float(x_a)})
    return build_mesh(medium, k_max, ppw, padding, observation_points=obs,
                      hull_points=(x_a,))
