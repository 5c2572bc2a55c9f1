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

One matrix factorization per frequency feeds all three solves (two plane
waves, one point source). The identity (ldos - medium) = boundary is the
zero-separation thermal-balance statement, so each sweep record carries
its relative residual for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .fem import Factorization, shared_factorization
from .greens import GreenSamples, sample_green
from .medium import ATOM_INSIDE, ATOM_OUTSIDE, MediumSpec
from .mesh import Mesh1D, PmlSpec, build_mesh
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

    The two unit-amplitude plane waves are the 1D stand-in for the angular
    spectrum entering from infinity; in vacuum each contributes 1/2.
    """
    if {sol_plus.direction, sol_minus.direction} != {+1, -1}:
        raise ValueError("need one solution per incidence direction")
    total = 0.0
    for sol in (sol_plus, sol_minus):
        total += abs(complex(sol.total_at(x_a))) ** 2 / sol.amplitude**2
    return 0.5 * total


def gamma_medium(samples: GreenSamples, medium: MediumSpec) -> float:
    """Medium part: noise currents in the slab radiating to the atom.

    Quadrature form 2 k^3 sum_q w_q chi_I |G(x_a, x_q)|^2; the homogeneous
    slab lets chi_I factor out of the sum.
    """
    chi_imag = complex(medium.susceptibility(samples.k)).imag
    weighted = float(np.sum(samples.weights * np.abs(samples.values) ** 2))
    return 2.0 * samples.k**3 * chi_imag * weighted


def compute_record(
    mesh: Mesh1D,
    medium: MediumSpec,
    omega_a: float,
    x_a: float,
    factorization: Factorization | None = None,
) -> PurcellRecord:
    """All Purcell factors at one frequency from one factorization."""
    factorization = shared_factorization(mesh, medium, omega_a,
                                         factorization)
    sol_plus = solve_scattering(mesh, medium, omega_a, +1, factorization)
    sol_minus = solve_scattering(mesh, medium, omega_a, -1, factorization)
    samples = sample_green(mesh, medium, omega_a, x_a, factorization)

    pf_sfa = gamma_sfa(samples)
    pf_b = gamma_boundary(sol_plus, sol_minus, x_a)
    pf_m = gamma_medium(samples, medium)
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
    max_workers: int | None = None,
) -> list[PurcellRecord]:
    """Frequency sweep; returns records sorted by transition frequency.

    Frequencies are independent, so the sweep optionally fans out over a
    thread pool (the tridiagonal LAPACK calls release the GIL); results are
    deterministic either way.
    """
    grid = sorted(float(w) for w in omegas)
    if not grid:
        return []

    def one(omega: float) -> PurcellRecord:
        try:
            return compute_record(mesh, medium, omega, x_a)
        except Exception as exc:
            note = f"sweep point omega_a = {omega}: {exc}"
            try:
                wrapped = type(exc)(note)
            except TypeError:
                wrapped = RuntimeError(note)
            raise wrapped from exc

    if max_workers is not None and max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(one, grid))
    return [one(omega) for omega in grid]


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
    pml_thickness: float = 0.05,
) -> Mesh1D:
    """Standard sweep mesh: both atom sites are nodes regardless of x_a."""
    pml = PmlSpec(thickness=pml_thickness)
    obs = sorted({ATOM_INSIDE, ATOM_OUTSIDE, float(x_a)})
    return build_mesh(medium, k_max, ppw, padding, pml, observation_points=obs)
