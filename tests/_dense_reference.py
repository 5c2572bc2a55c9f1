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
"""

import numpy as np

from slabqed import micromodes
from slabqed.fem import DEFAULT_DOF_CAP, GAUSS_NODES, GAUSS_WEIGHTS
from slabqed.fem import node_of
from slabqed.greens import sample_green, solve_point_source
from slabqed.medium import ATOM_INSIDE, ATOM_OUTSIDE
from slabqed.mesh import unique_columns
from slabqed.purcell import PurcellRecord
from slabqed.oracle import (
    tmm_green,
    tmm_reflection_transmission,
    tmm_total_field,
)
from slabqed.scattering import extract_r_t, solve_scattering


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


def per_frequency_readouts(mesh, medium, omega, x_a):
    """(r, t, field, green) of the FEM at one frequency, each from its
    per-point readout: ``extract_r_t``, ``PlaneWaveSolution.total_at`` at
    the two atom sites and ``FieldSolution.__call__`` at 9 points across
    the slab."""
    solution = solve_scattering(mesh, medium, omega, +1)
    r, t = extract_r_t(solution)
    probes = np.array([ATOM_INSIDE, ATOM_OUTSIDE])
    sample = np.linspace(-medium.slab_half_length,
                         medium.slab_half_length, 9)
    green = solve_point_source(mesh, medium, omega, x_a)
    return r, t, solution.total_at(probes), green(sample)


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
        total += abs(complex(sol.total_at(x_a))) ** 2
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
