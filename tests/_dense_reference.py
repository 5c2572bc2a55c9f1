"""Dense copies of the banded operators, the references the tests compare to.

Nothing in ``src/`` forms these matrices: the eigenmode route works on the
bands and the Schur complement alone (``test_layering`` keeps it so). The
pointwise slab profile of a ``MediumSpec`` (``in_slab``,
``relative_permittivity``) is a reference too: the package places the slab
by the mesh's elements, not by a test at each point. So are the Gauss
points of the element rule (``element_quadrature``): the package applies
the rule once, to build the mass bands, and forms no point values.
``per_mode_bisect`` is the eigenmode count one bracket per mode, the
reference the grouped count of ``micromodes._bisect`` is checked against.
``per_frequency_oracle_residuals`` is the FEM-vs-oracle comparison one
frequency at a time, through the per-point readouts and the scalar
oracle, the reference of the grid comparison in ``crosscheck``;
``interpolate_p1`` is np.interp on the real and imaginary parts, the
reference of the package's P1 readouts. ``per_frequency_sweep`` is the
sweep one frequency at a time, each assembled and factored by itself
through the route functions, the reference of the block sweep in
``purcell``; the per-route rate readers ``gamma_sfa``,
``gamma_boundary`` and ``gamma_medium`` read the three rates off the
route functions' states, as ``purcell._record`` reads them off its solves.
``reciprocity_residual`` compares G(a, b) with G(b, a) from two
point-source solves, and ``read_config_echo`` re-parses the config a CSV
header echoes: checks that only the tests make. So are ``total_at``, a
scattering state's total field at any points, the per-point reference of
the grid readouts in ``crosscheck``; ``energy_balance``, the plane-wave
flux deficit against the slab's absorption; and
``effective_susceptibility``, the susceptibility the eigenmode pencil's
bath implements, which calibrates ``micromodes.frequency_bins``.
``full_grid_frequency_bins`` is ``frequency_bins`` with every sum over its
whole grid at once, the reference of its chunked sums.
"""

from dataclasses import dataclass

import numpy as np

from slabqed import micromodes
from slabqed.cli import ConfigError, config_from_items
from slabqed.fem import DEFAULT_DOF_CAP, GAUSS_NODES, GAUSS_WEIGHTS
from slabqed.fem import carried_past_port, node_of, p1_stencil
from slabqed.greens import sample_green, solve_point_source
from slabqed.medium import ATOM_INSIDE, ATOM_OUTSIDE
from slabqed.mesh import unique_columns
from slabqed.oracle import (
    tmm_green,
    tmm_reflection_transmission,
    tmm_total_field,
)
from slabqed.purcell import PurcellRecord
from slabqed.scattering import extract_r_t, solve_scattering

# effective_susceptibility evaluates the bath comb this many local bin
# spacings off the real axis; fixed by the calibration measurements
DELTA_FACTOR = 1.0


def element_quadrature(mesh, elements=slice(None)):
    """The element rule on ``elements`` (default: every element).

    Returns (points, half, weights): the Gauss points (n, 4), the element
    half-lengths (n, 1) and the point weights half * GAUSS_WEIGHTS (n, 4),
    so ``np.sum(weights * f(points))`` integrates f over those elements.
    """
    half = 0.5 * mesh.element_lengths[elements][:, None]
    points = mesh.element_midpoints[elements, None] + half * GAUSS_NODES
    return points, half, half * GAUSS_WEIGHTS


def in_slab(medium, x):
    """True where ``x`` lies in the medium's slab, faces included."""
    return np.abs(x) <= medium.slab_half_length


def relative_permittivity(medium, x, omega):
    """eps_r(x, omega) = 1 + chi(omega) inside the slab, 1 outside.

    ``x`` may be a scalar or an ndarray; broadcasting against a scalar
    ``omega`` gives the permittivity profile at those points.
    """
    x = np.asarray(x, dtype=float)
    eps = np.ones(x.shape, dtype=complex)
    eps[in_slab(medium, x)] += medium.susceptibility(omega)
    return eps if eps.ndim else complex(eps)


def dense_tridiagonal(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Dense symmetric matrix from a diagonal and its off-diagonal band."""
    full = np.diag(diag)
    idx = np.arange(off.size)
    full[idx, idx + 1] = off
    full[idx + 1, idx] = off
    return full


def dense_operators(system):
    """The pencil (K, B) of a ``micromodes.GevpSystem`` as dense arrays.

    Refuses systems above ``fem.DEFAULT_DOF_CAP``: a runaway mesh or bin
    count should fail here with a clear message rather than by exhausting
    memory.
    """
    n = system.size
    if n > DEFAULT_DOF_CAP:
        raise ValueError(
            f"dense pencil needs {n} dofs, above the cap {DEFAULT_DOF_CAP}; "
            "coarsen the mesh or reduce n_bins"
        )
    n_em = system.n_em
    nb = system.bin_frequencies.size
    K = np.zeros((n, n))
    B = np.zeros((n, n))

    K[:n_em, :n_em] = dense_tridiagonal(system.em_s_diag, system.em_s_off)
    B[:n_em, :n_em] = dense_tridiagonal(system.em_m_diag, system.em_m_off)

    if nb:
        total_weight = float(np.sum(system.bin_weights))
        alpha_line = system.bin_frequencies * np.sqrt(system.bin_weights)
        for e, (p, q) in enumerate(system.slab_dof_pairs):
            h_e = system.slab_lengths[e]
            cols = n_em + e * nb + np.arange(nb)
            K[cols, cols] = system.bin_frequencies**2
            B[cols, cols] = 1.0
            half_coupling = -0.5 * np.sqrt(h_e) * alpha_line
            for dof in (p, q):
                K[dof, cols] += half_coupling
                K[cols, dof] += half_coupling
            counter = 0.25 * h_e * total_weight
            for a in (p, q):
                for b in (p, q):
                    K[a, b] += counter
    return K, B


def per_mode_bisect(schur, first, last, lam_lo, lam_hi):
    """``micromodes._bisect`` with one bracket per mode, its reference.

    Every mode carries its own bracket, anchor, counts at both ends, probe
    history, halving flag and guard rounds, and the probes of all modes
    share one pivot sweep a round, deduplicated across modes by
    ``unique_columns``. The rules of a round are those of ``_bisect``,
    which keeps one bracket per group of modes that share it and must
    return the same (anchor, delta) bit for bit, in as many sweeps.
    """
    target = np.arange(first, last)
    anchor = np.zeros(target.size, dtype=int)
    lo = np.full(target.size, float(lam_lo))
    hi = np.full(target.size, float(lam_hi))
    count_lo = np.full(target.size, first)
    count_hi = np.full(target.size, last)
    # the last three probe offsets that moved an end of each mode's
    # bracket, oldest first, and the last pivot at each
    xs, fs = np.full((2, 3, target.size), np.nan)
    halved = np.zeros(target.size, dtype=bool)
    guards = np.zeros(target.size)  # guard rounds spent so far
    active = np.arange(target.size)
    eps = np.finfo(float).eps
    while active.size:
        a, l, h = anchor[active], lo[active], hi[active]
        new = schur.nearest(schur.anchors[a] + 0.5 * (l + h))
        shift = schur.anchors[a] - schur.anchors[new]
        l, h = l + shift, h + shift
        x, f = xs[:, active] + shift, fs[:, active]  # the history, too
        t = target[active]
        with np.errstate(all="ignore"):
            # the zero of c (x - z) / (x - p) through the three pairs
            u0, u1 = x[0] - x[2], x[1] - x[2]
            step = x[2] + f[2] * u0 * u1 * (f[0] - f[1]) / (
                u1 * f[1] * (f[0] - f[2]) - u0 * f[0] * (f[1] - f[2]))
        stepping = ((count_lo[active] == t) & (count_hi[active] == t + 1)
                    & (l < step) & (step < h))
        mid = 0.5 * (l + h)
        # what a bisection leaves, so a midpoint round always halves
        half = np.maximum(mid - l, h - mid)
        step = np.where(stepping, step, mid)  # keeps the guard below finite
        guard = stepping & ~halved[active]
        far = np.where(step - l < h - step, h, l)
        # one last correction past the step, widened to tol, 2 tol, 4 tol,
        # ... over the mode's guard rounds (tol = 2 eps max(|lo|, |hi|), half
        # the stop rule's width), and never past half way to the far end
        tol = 2.0 * eps * np.maximum(np.abs(l), np.abs(h))
        reach = np.minimum(
            np.maximum(np.abs(step - x[2]), tol * 2.0 ** guards[active]),
            0.5 * np.abs(far - step))
        guards[active] += guard
        pair = np.stack(
            (step, np.where(guard, step + np.sign(far - step) * reach, step)))
        parts = max(1, min(micromodes._MULTISECTION,
                           micromodes._PROBE_BUDGET // active.size))
        even = l + (h - l) * (np.arange(1, parts + 1) / (parts + 1))[:, None]
        # one row per probe; a mode with fewer probes repeats its last
        rows = np.arange(max(2, parts))
        probes = np.where(stepping, pair[np.minimum(rows, 1)],
                          even[np.minimum(rows, parts - 1)])
        probes = np.where(probes == 0.0, 0.5 * h, probes)  # a bin is singular
        stuck = ~stepping & ~np.any((l < probes) & (probes < h), axis=0)
        anchors, offsets = np.tile(new, rows.size), probes.ravel()
        _, first_of, inverse = unique_columns(np.stack((anchors, offsets)))
        counts, pivots = schur.sweep(anchors[first_of], offsets[first_of])
        counts = counts[inverse].reshape(probes.shape)
        pivots = pivots[inverse].reshape(probes.shape)
        c_lo, c_hi = count_lo[active], count_hi[active]
        for probe, count, pivot in zip(probes, counts, pivots):
            above = count > t
            to_hi = above & (probe < h)
            to_lo = ~above & (probe > l)
            h, c_hi = np.where(to_hi, probe, h), np.where(to_hi, count, c_hi)
            l, c_lo = np.where(to_lo, probe, l), np.where(to_lo, count, c_lo)
            moved = to_hi | to_lo
            x = np.where(moved, np.vstack((x[1:], probe)), x)
            f = np.where(moved, np.vstack((f[1:], pivot)), f)
        xs[:, active], fs[:, active] = x, f
        halved[active] = h - l <= half
        anchor[active], lo[active], hi[active] = new, l, h
        count_lo[active], count_hi[active] = c_lo, c_hi
        done = stuck | (h - l <= 4.0 * eps * np.maximum(np.abs(l), np.abs(h)))
        active = active[~done]
    delta = 0.5 * (lo + hi)
    return anchor, np.where(delta == 0.0, hi, delta)


def interpolate_p1(xp, fp, x):
    """P1 interpolation of the complex values ``fp`` at the nodes ``xp``,
    by np.interp on the real and imaginary parts."""
    return np.interp(x, xp, fp.real) + 1j * np.interp(x, xp, fp.imag)


def total_at(solution, x):
    """Incident + scattered field of a ``PlaneWaveSolution`` at any points
    of an open mesh's vacuum.

    In the physical region both parts are P1 on one mesh, so their sum is
    interpolated once. It is formed only at the two nodes that bracket
    each point (``fem.p1_stencil``), the only nodes interpolation reads
    there, so this is bitwise the interpolation of the sum formed at every
    node. Past a port the scattered part is the outgoing lattice wave and
    the incident wave's phase continues at the wall's lattice spacing
    (``fem.carried_past_port``), as on the vacuum padding the mesh omits;
    a point reads the same bits alone as among others.
    """
    mesh, d = solution.scattered.mesh, solution.direction
    x = np.asarray(x, dtype=float)
    lo, hi = mesh.physical_region
    at = p1_stencil(mesh, np.clip(x, lo, hi))
    total = np.asarray(at(*solution.total_at_nodes(at.nodes)))
    past = (x < lo) | (x > hi)
    if past.any():
        beyond = x[past]
        ports = np.where(beyond > hi, mesh.n_nodes - 2, 1)
        total[past] = solution.scattered(beyond) + carried_past_port(
            mesh, solution.scattered.k, solution.lu.wave(ports, d), beyond, d)
    return total if total.ndim else complex(total)


@dataclass(frozen=True)
class EnergyBalance:
    flux_deficit: float  # 1 - |r|^2 - |t|^2
    absorbed: float  # the slab's loss of Phi_tot, over k
    residual: float  # relative mismatch


def energy_balance(solution):
    """Check that the missing flux equals the power dissipated in the slab.

    The absorbed power is the slab's loss -Phi^H Im(L - L_vac) Phi of the
    nodal total field over k, read from the solution's LU
    (``Factorization.slab_loss``): on P1 k Im(chi) int_slab |Phi_tot|^2,
    exact for the P1 field.
    """
    r, t = extract_r_t(solution)
    deficit = 1.0 - abs(r) ** 2 - abs(t) ** 2

    phi = solution.total_at_nodes(solution.scattered.mesh.slab_nodes)
    absorbed = solution.lu.slab_loss(phi, phi).real / solution.lu.k
    # floor the scale so a lossless run (both sides ~ round-off) reads as a
    # tiny residual instead of 0/0 noise
    scale = max(abs(deficit), abs(absorbed), 1e-6)
    return EnergyBalance(
        flux_deficit=deficit,
        absorbed=absorbed,
        residual=abs(deficit - absorbed) / scale,
    )


def effective_susceptibility(system, omega):
    """Susceptibility a ``micromodes.GevpSystem`` actually implements, at
    frequency omega.

    Eliminating one element's oscillator block at complex frequency z
    leaves the element with an extra mass z^2 * h_e * chi_d(z); this
    returns chi_d(omega) continued to the real axis. The oscillator sum
    is only meaningful a little off the axis (it is a finite comb), so it
    is evaluated at z = omega + i*delta with delta tied to the local bin
    spacing (``DELTA_FACTOR``), and the leading linear-in-delta error
    removed by a two-point extrapolation.
    """
    if omega <= 0:
        raise ValueError(f"omega must be > 0, got {omega}")
    nu = system.bin_frequencies
    w = system.bin_weights
    if nu.size == 0:
        return 0.0 + 0.0j
    if np.min(np.abs(nu - omega)) == 0.0:
        raise ValueError(
            f"omega = {omega} collides with a bath bin; resample nearby"
        )
    if nu.size == 1:
        return complex(w[0] / (nu[0] ** 2 - omega**2))

    i = int(np.searchsorted(nu, omega))
    lo = max(min(i - 1, nu.size - 2), 0)
    gap = max(float(nu[lo + 1] - nu[lo]), 1e-12)
    delta = DELTA_FACTOR * gap

    def comb(d):
        z = omega + 1j * d
        return np.sum(w / (nu**2 - z**2))

    return complex(2.0 * comb(delta) - comb(2.0 * delta))


def full_grid_frequency_bins(medium, bath):
    """``micromodes.frequency_bins`` with each cumulative trapezoid sum
    taken over the whole grid in one array pass."""
    count = micromodes.bin_count(medium, bath)
    if count < 2:
        return np.full(count, medium.omega_0), np.full(count,
                                                       medium.omega_p**2)

    points = micromodes._GRID_POINTS
    nu = np.linspace(bath.nu_max / points, bath.nu_max, points)
    dens = micromodes.oscillator_strength(medium, nu)

    def cumulative(values):
        steps = 0.5 * (values[1:] + values[:-1]) * np.diff(nu)
        return np.concatenate(([0.0], np.cumsum(steps)))

    share = micromodes._UNIFORM_SHARE
    mass = cumulative(dens)
    shaped = cumulative(dens**micromodes._SHAPE_POWER)
    mixture = share * nu / bath.nu_max + (1.0 - share) * shaped / shaped[-1]
    mixture /= mixture[-1]

    edges = np.interp(np.linspace(0.0, 1.0, bath.n_bins + 1), mixture, nu)
    weights = np.diff(np.interp(edges, nu, mass))
    first_moment = cumulative(dens * nu)
    centroid_num = np.diff(np.interp(edges, nu, first_moment))
    midpoints = 0.5 * (edges[1:] + edges[:-1])
    centers = np.where(
        weights > 1e-300 * max(mass[-1], 1.0),
        centroid_num / np.maximum(weights, 1e-300),
        midpoints,
    )
    return centers, weights


def per_frequency_readouts(mesh, medium, omega, x_a):
    """(r, t, field, green) of the FEM at one frequency, each from its
    per-point readout: ``extract_r_t``, ``total_at`` at
    the two atom sites and ``FieldSolution.__call__`` at 9 points across
    the slab."""
    solution = solve_scattering(mesh, medium, omega, +1)
    r, t = extract_r_t(solution)
    probes = np.array([ATOM_INSIDE, ATOM_OUTSIDE])
    sample = np.linspace(-medium.slab_half_length,
                         medium.slab_half_length, 9)
    green = solve_point_source(mesh, medium, omega, x_a)
    return r, t, total_at(solution, probes), green(sample)


def per_frequency_oracle_residuals(mesh, medium, omega, x_a):
    """(res_rt, res_field, res_green) at one frequency, against the scalar
    oracle: ``crosscheck.oracle_residuals`` one frequency at a time."""
    r_fem, t_fem, fem_field, g_fem = per_frequency_readouts(
        mesh, medium, omega, x_a)
    r_ref, t_ref = tmm_reflection_transmission(medium, omega)
    scale = max(abs(r_ref), abs(t_ref))
    res_rt = max(abs(r_fem - r_ref), abs(t_fem - t_ref)) / scale

    probes = np.array([ATOM_INSIDE, ATOM_OUTSIDE])
    tmm_field = tmm_total_field(medium, omega, +1, probes)
    scale_field = max(float(np.max(np.abs(tmm_field))), 1.0)
    res_field = float(np.max(np.abs(fem_field - tmm_field))) / scale_field

    sample = np.linspace(-medium.slab_half_length,
                         medium.slab_half_length, 9)
    g_tmm = tmm_green(medium, omega, sample, x_a)
    res_green = float(np.max(np.abs(g_fem - g_tmm)) / np.max(np.abs(g_tmm)))
    return res_rt, res_field, res_green


def gamma_sfa(samples):
    """Rate over free-space rate from the local density of states."""
    return 2.0 * samples.k * samples.self_value.imag


def gamma_boundary(sol_plus, sol_minus, x_a):
    """Boundary part: half the summed intensity of the two scattering states.

    The two unit-amplitude lattice plane waves are the 1D stand-in for the
    angular spectrum entering from infinity; in vacuum each contributes
    1/2. A sweep forms the same sum at the atom's node.
    """
    if {sol_plus.direction, sol_minus.direction} != {+1, -1}:
        raise ValueError("need one solution per incidence direction")
    total = 0.0
    for sol in (sol_plus, sol_minus):
        total += abs(complex(total_at(sol, x_a))) ** 2
    return 0.5 * total


def gamma_medium(samples):
    """Medium part: noise currents in the slab radiating to the atom.

    2k times the slab's loss -g^H Im(L - L_vac) g, which ``sample_green``
    reads from the operator; on P1 that is 2 k^3 chi_I int_slab
    |G(x_a, x)|^2 dx (the element rule's Gauss sum, exactly).
    """
    return 2.0 * samples.k * samples.medium_loss


def per_frequency_sweep(mesh, medium, omegas, x_a):
    """``purcell.sweep`` one frequency at a time: per frequency the two
    scattering states and the point source, each frequency's operator
    assembled and factored by itself, then the three rates."""
    records = []
    for omega in sorted(float(w) for w in omegas):
        sol_plus = solve_scattering(mesh, medium, omega, +1)
        sol_minus = solve_scattering(mesh, medium, omega, -1)
        samples = sample_green(mesh, medium, omega, x_a)
        node = node_of(mesh, x_a)
        pf_sfa = gamma_sfa(samples)
        pf_b = 0.5 * sum(abs(sol.total_at_nodes(node)) ** 2
                         for sol in (sol_plus, sol_minus))
        pf_m = gamma_medium(samples)
        lhs = pf_sfa - pf_m
        tec = abs(lhs - pf_b) / max(abs(lhs), abs(pf_b), 1e-300)
        records.append(PurcellRecord(
            omega_a=omega, x_a=float(x_a), pf_sfa=pf_sfa, pf_b=pf_b,
            pf_m=pf_m, pf_modified_ln=pf_b + pf_m, pf_original_ln=pf_m,
            tec_residual=tec))
    return records


def reciprocity_residual(mesh, medium, k, x_a, x_b):
    """|G(a,b) - G(b,a)| / max(|G(a,b)|, |G(b,a)|) from two separate solves."""
    g_ab = solve_point_source(mesh, medium, k, x_b)
    g_ba = solve_point_source(mesh, medium, k, x_a)
    val_ab = g_ab.at_node(mesh.find_node(x_a))
    val_ba = g_ba.at_node(mesh.find_node(x_b))
    scale = max(abs(val_ab), abs(val_ba), 1e-300)
    return abs(val_ab - val_ba) / scale


def read_config_echo(path):
    """Re-parse the config echoed in a CSV metadata header."""
    items = []
    with open(path, "r", encoding="utf-8") as fh:
        in_config = False
        for line in fh:
            if not line.startswith("#"):
                break
            body = line[1:].strip()
            if body == "config:":
                in_config = True
                continue
            if in_config and "=" in body:
                key, value = body.split("=", 1)
                items.append((key.strip(), value.strip()))
    if not items:
        raise ConfigError(f"{path} carries no config echo")
    return config_from_items(items)
