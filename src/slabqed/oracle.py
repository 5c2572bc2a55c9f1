"""Closed-form transfer-matrix reference for the single slab.

Independent cross-check route: everything here is built from the analytic
plane-wave solution of ``Phi'' + k^2 eps_r(x) Phi = 0`` for a homogeneous slab
in vacuum, with no code shared with the finite-element modules. The FEM path
is validated against these functions, so resist the temptation to "unify"
them.

Conventions (same normalized units as the rest of the package):

* slab occupies [-a, +a] with a = medium.slab_half_length
* the incident wave has unit amplitude and absolute phase (e^{ikx} for
  direction +1); internally the total field left of the slab is
  ``e^{ikx} + r_abs e^{-ikx}`` and right of it ``t_abs e^{ikx}``
* reported r/t use the face (de-embedded port) convention the scattering
  module documents, so an empty slab gives (0, 1)
* interior amplitudes are referenced to the face each wave launches from,
  which keeps every amplitude O(1) even when the slab is opaque

Every function takes one frequency or an array of them, and works in
one arithmetic, numpy's array arithmetic: an array gives one value per
frequency (times the shape of x for the fields), and one frequency is
worked as an array of one and unwrapped, to a Python complex where the
result is one number. Each region is evaluated on its own points only: a
formula of one region may overflow at the points of another, where it is
not used. numpy's array complex products and quotients round differently
from Python's scalar ones (in ~44% and ~43% of random operands on an
AVX-512 machine), which one frequency no longer uses; an array of one
gave bitwise the values of the same frequency in a grid on the stock
media and on a lossless slab near its resonance (``test_crosscheck``
holds the two to 16 eps).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .medium import MediumSpec


def slab_wavenumber(medium: MediumSpec, omega: float) -> complex:
    """Wavenumber inside the slab, k_s = k sqrt(1 + chi), with Im k_s >= 0.

    numpy's principal square root already lands in the upper half plane for
    passive chi (Im chi >= 0) and picks +i|k_s| below a lossless cutoff, so
    the decaying branch comes out without case analysis.
    """
    return omega * np.sqrt(1.0 + medium.susceptibility(omega))


@dataclass(frozen=True)
class SlabScattering:
    """Plane-wave solution for unit incidence from the left.

    Each field is a Python scalar for one frequency, or an array of the
    shape of the frequencies asked for.
    """

    omega: float
    k_slab: complex
    half_length: float
    r: complex  # reflection, absolute phase at x = 0
    t: complex  # transmission, absolute phase at x = 0
    amp_left: complex  # interior wave launched at the left face, e^{+ik_s(x+a)}
    amp_right: complex  # interior wave launched at the right face, e^{-ik_s(x-a)}


def plane_wave_coefficients(medium: MediumSpec, omega) -> SlabScattering:
    """Closed-form two-interface solution for incidence from the left.

    The face-referenced Fabry-Perot sum: with the step reflection
    rho = (k - k_s) / (k + k_s) and the one-way propagator P = e^{i k_s L},
    the wave launched into the slab at the left face is
    C = (1 + rho) e^{-ika} / (1 - rho^2 P^2), the one launched back at the
    right face D = -rho P C, and r = rho (1 - P^2) / (1 - rho^2 P^2) at the
    illuminated face. Nothing divides by P, which underflows to 0 in an
    opaque slab (C, D, r and t then tend to their single-face values), and
    |rho P| < 1 for a passive slab with k_s != 0, so the denominator does
    not vanish. No matrix is formed or solved: the frequencies are worked
    elementwise in numpy's array arithmetic, one frequency as an array of
    one.
    """
    omega = np.asarray(omega, dtype=float)
    if np.any(omega <= 0):
        raise ValueError(f"omega must be > 0, got {omega}")
    k = np.atleast_1d(omega)
    ks = slab_wavenumber(medium, k)
    rho = (k - ks) / (k + ks)
    # |P| <= 1 when passive
    prop = np.exp(1j * ks * medium.slab_length)
    denom = 1.0 - (rho * prop) ** 2
    incident = np.exp(-1j * k * medium.slab_half_length)  # x = -a
    c = (1.0 + rho) * incident / denom
    r_face = rho * (1.0 - prop**2) / denom
    fields = dict(k_slab=ks, r=r_face * incident**2,
                  t=(1.0 - rho) * prop * c * incident, amp_left=c,
                  amp_right=-rho * prop * c)
    return SlabScattering(omega=_unwrapped(omega, k),
                          half_length=medium.slab_half_length,
                          **{name: _unwrapped(omega, value)
                             for name, value in fields.items()})


def _unwrapped(omega: np.ndarray, value: np.ndarray):
    """``value``, worked for the frequencies ``omega`` as an array: for one
    frequency (0-d ``omega``), its one entry as a Python scalar."""
    return value if omega.ndim else value.reshape(-1)[0].item()


def tmm_reflection_transmission(medium: MediumSpec, omega):
    """(r, t) in the face (de-embedded port) convention.

    r = reflected/incident amplitude at the illuminated face, t =
    transmitted/incident at the exit face; an empty slab gives (0, 1).
    The slab is mirror symmetric, so the pair holds for either incidence
    direction. An array of frequencies gives an array of each.
    """
    omega = np.asarray(omega, dtype=float)
    sol = plane_wave_coefficients(medium, np.atleast_1d(omega))
    shift = np.exp(2j * sol.omega * medium.slab_half_length)
    return _unwrapped(omega, sol.r * shift), _unwrapped(omega, sol.t)


def _on_points(omega, x):
    """(frequencies, points, shape of the result) for an evaluation of
    every frequency at every point.

    The points come flattened. The frequencies, one as an array of one,
    get a trailing axis, so each coefficient broadcasts against the
    points, and the result has the frequencies' shape followed by the
    points'.
    """
    x = np.asarray(x, dtype=float)
    omega = np.asarray(omega, dtype=float)
    return (np.atleast_1d(omega)[..., None], x.reshape(-1),
            omega.shape + x.shape)


def tmm_total_field(medium: MediumSpec, omega, direction: int, x):
    """Total field of a unit plane wave hitting the slab.

    direction +1 means incidence from the left (e^{+ikx}), -1 from the right.
    The slab is symmetric about x = 0, so the -1 solution is the +1 solution
    evaluated at -x. Accepts scalar or array x, and a scalar or an array
    of frequencies: an array gives its shape followed by the shape of x.
    Each region is evaluated on its own points only.
    """
    if direction not in (+1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction}")
    omega, x, shape = _on_points(omega, x)
    sol = plane_wave_coefficients(medium, omega)
    if direction == -1:
        x = -x
    k, ks, a = sol.omega, sol.k_slab, sol.half_length

    out = np.empty(np.broadcast_shapes(np.shape(k), x.shape), dtype=complex)
    left = x < -a
    right = x > a
    inside = ~(left | right)
    out[..., left] = (np.exp(1j * k * x[left])
                      + sol.r * np.exp(-1j * k * x[left]))
    out[..., inside] = sol.amp_left * np.exp(1j * ks * (x[inside] + a)) + \
        sol.amp_right * np.exp(-1j * ks * (x[inside] - a))
    out[..., right] = sol.t * np.exp(1j * k * x[right])
    out = out.reshape(shape)
    return out if out.ndim else complex(out)


def _outgoing_pair(medium: MediumSpec, k):
    """Homogeneous solutions u_left, u_right used to build the Green function.

    u_left is purely left-going (e^{-ikx}) for x < -a; u_right is purely
    right-going (e^{+ikx}) for x > a. Each is continued through the slab by
    matching value and derivative at the faces. Across an opaque slab they
    grow by 1/|P|, P = e^{i k_s L}, which overflows, so each is returned
    scaled back by e^{i k_s s(x)}, s its depth into the slab from the face
    it enters by (0 before that face, L past the other): every amplitude
    is O(1), and the growth is restored as one factor in ``tmm_green``.
    Returns (u_left, u_right, wronskian, (al, ar, bl, br)): the scaled
    evaluators, P times the Wronskian u_L u_R' - u_L' u_R, and P times the
    vacuum amplitudes of u_left on the right (al e^{ikx} + bl e^{-ikx})
    and of u_right on the left (ar, br alike). An array of frequencies
    gives an array of each, and evaluators that take flattened points.
    """
    a = medium.slab_half_length
    ks = slab_wavenumber(medium, k)
    phase = np.exp(1j * k * a)
    prop2 = np.exp(2j * ks * medium.slab_length)  # P^2; may underflow to 0

    def vacuum_amplitudes(inner, outer, slope):
        """P times the (e^{ikx}, e^{-ikx}) amplitudes past the far face.

        Before that face's phase is applied: the scaled solution reads
        inner + outer P^2 at the far face and its derivative over ik
        slope (inner - outer P^2).
        """
        val = inner + outer * prop2
        der = slope * (inner - outer * prop2)
        return 0.5 * (val + der), 0.5 * (val - der)

    # u_right: e^{ikx} in x > a, continued leftward; scaled, it reads
    # cr + dr e^{2i ks (a - x)} inside the slab
    cr = (ks + k) / (2.0 * ks) * phase
    dr = (ks - k) / (2.0 * ks) * phase
    plus, minus = vacuum_amplitudes(cr, dr, ks / k)
    ar, br = plus * phase, minus / phase

    # u_left: e^{-ikx} in x < -a, continued rightward. Mirror of u_right.
    cl = (ks - k) / (2.0 * ks) * phase
    dl = (ks + k) / (2.0 * ks) * phase
    plus, minus = vacuum_amplitudes(dl, cl, -ks / k)
    al, bl = plus / phase, minus * phase

    # Wronskian u_L u_R' - u_L' u_R, constant in x; in the right vacuum region
    # it collapses to 2ik b_left (and to 2ik a_right on the left, a theorem
    # the tests check).
    wronskian = 2j * k * bl

    def u_left(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(np.broadcast_shapes(np.shape(k), x.shape),
                       dtype=complex)
        lt, gt = x < -a, x > a
        mid = ~(lt | gt)
        depth = x[mid] + a
        out[..., lt] = np.exp(-1j * k * x[lt])
        out[..., mid] = dl + cl * np.exp(2j * ks * depth)
        out[..., gt] = (al * np.exp(1j * k * x[gt])
                        + bl * np.exp(-1j * k * x[gt]))
        return out

    def u_right(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(np.broadcast_shapes(np.shape(k), x.shape),
                       dtype=complex)
        lt, gt = x < -a, x > a
        mid = ~(lt | gt)
        depth = a - x[mid]
        out[..., gt] = np.exp(1j * k * x[gt])
        out[..., mid] = cr + dr * np.exp(2j * ks * depth)
        out[..., lt] = (ar * np.exp(1j * k * x[lt])
                        + br * np.exp(-1j * k * x[lt]))
        return out

    return u_left, u_right, wronskian, (al, ar, bl, br)


def tmm_green(medium: MediumSpec, omega, x, x_src):
    """Outgoing Green function of Phi'' + k^2 eps_r Phi = -delta(x - x_src).

    G(x, x') = -u_L(x_<) u_R(x_>) / W with W the (constant) Wronskian of the
    two outgoing solutions. Symmetric in (x, x_src) by construction; reduces
    to (i/2k) e^{ik|x - x'|} in vacuum. Accepts scalar or array x, and a
    scalar or an array of frequencies: an array gives its shape followed
    by the shape of x. Each region is evaluated on its own points only.
    """
    omega, x, shape = _on_points(omega, x)
    u_left, u_right, wronskian, _ = _outgoing_pair(medium, omega)
    lo = np.minimum(x, x_src)
    hi = np.maximum(x, x_src)
    # the scalings of u_left(lo), u_right(hi) and W leave e^{i k_s d}, d the
    # slab length between lo and hi: the attenuation, at most 1 in size
    a = medium.slab_half_length
    between = (np.minimum(np.maximum(hi, -a), a)
               - np.minimum(np.maximum(lo, -a), a))
    span = np.exp(1j * slab_wavenumber(medium, omega) * between)
    g = (-u_left(lo) * u_right(hi) * span / wronskian).reshape(shape)
    return g if g.ndim else complex(g)
