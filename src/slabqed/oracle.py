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

Everything comes from one homogeneous solution, the outgoing one u: e^{ikx}
past the right face, continued leftward through the slab to A e^{ikx} +
B e^{-ikx} left of it (``_outgoing``). The left-incident scattering state
is u / A, so r = B / A and t = e^{i k_s L} / A; the slab is mirror
symmetric, so the right-incident state is its mirror image, the other
outgoing solution is u(-x), and their Wronskian is 2ik A. The Green
function is (i / 2 k t) Phi_+(-x_<) Phi_+(x_>) in those terms.

Every function takes one frequency or an array of them, and works in
one arithmetic, numpy's array arithmetic: an array gives one value per
frequency (times the shape of x for the fields), and one frequency is
worked as an array of one and unwrapped, to a Python complex where the
result is one number, so it reads the bits it has in a grid. Each region
is evaluated on its own points only: a formula of one region may overflow
at the points of another, where it is not used.
"""

from __future__ import annotations

import numpy as np

from .medium import MediumSpec


def slab_wavenumber(medium: MediumSpec, omega: float) -> complex:
    """Wavenumber inside the slab, k_s = k sqrt(1 + chi), with Im k_s >= 0.

    numpy's principal square root already lands in the upper half plane for
    passive chi (Im chi >= 0) and picks +i|k_s| below a lossless cutoff, so
    the decaying branch comes out without case analysis.
    """
    return omega * np.sqrt(1.0 + medium.susceptibility(omega))


def _outgoing(medium: MediumSpec, k):
    """The outgoing solution u of the frequencies ``k`` (an array, finite
    and > 0).

    u is e^{ikx} for x > a. Across an opaque slab it grows by 1/|P|,
    P = e^{i k_s L}, which overflows, so it is returned scaled back by
    e^{i k_s s(x)}, s its depth into the slab from the right face (0 right
    of it, L left of it): inside the slab it reads c + d e^{2i k_s (a - x)}
    and left of it A e^{ikx} + B e^{-ikx}, every amplitude O(1). Nothing
    divides by P, which underflows to 0 in an opaque slab, and A does not
    vanish for a passive slab with k_s != 0.

    Returns (u, k_s, P, c, d, A, B), with ``u`` the scaled evaluator of
    flattened points.
    """
    bad = k[~((k > 0) & (k < np.inf))]  # NaN fails both comparisons
    if bad.size:
        raise ValueError(f"omega must be finite and > 0, got {bad[0]}")
    a = medium.slab_half_length
    ks = slab_wavenumber(medium, k)
    phase = np.exp(1j * k * a)
    prop = np.exp(1j * ks * medium.slab_length)
    prop2 = np.exp(2j * ks * medium.slab_length)  # P^2; may underflow to 0
    c = (ks + k) / (2.0 * ks) * phase
    d = (ks - k) / (2.0 * ks) * phase
    # at the left face the scaled u reads c + d P^2, and its derivative
    # over ik (k_s / k) (c - d P^2)
    value, slope = c + d * prop2, ks / k * (c - d * prop2)
    amp_a = 0.5 * (value + slope) * phase
    amp_b = 0.5 * (value - slope) / phase

    def u(x):
        return _by_region(
            a, k, x,
            lambda x: amp_a * np.exp(1j * k * x) + amp_b * np.exp(-1j * k * x),
            lambda x: c + d * np.exp(2j * ks * (a - x)),
            lambda x: np.exp(1j * k * x))

    return u, ks, prop, c, d, amp_a, amp_b


def _by_region(a: float, k, x, left, inside, right):
    """The values of the frequencies ``k`` at the points ``x``, each region
    of the line (left of, inside and right of the slab [-a, a]) from its
    own formula, evaluated on its points only."""
    out = np.empty(np.broadcast_shapes(np.shape(k), x.shape), dtype=complex)
    lt, gt = x < -a, x > a
    mid = ~(lt | gt)
    out[..., lt] = left(x[lt])
    out[..., mid] = inside(x[mid])
    out[..., gt] = right(x[gt])
    return out


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
    k = np.atleast_1d(omega)
    _, _, prop, _, _, amp_a, amp_b = _outgoing(medium, k)
    r = amp_b / amp_a * np.exp(2j * k * medium.slab_half_length)
    return _unwrapped(omega, r), _unwrapped(omega, prop / amp_a)


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
    Inside the slab u / A is worked as two waves, each referenced to the
    face it leaves from, so neither phase grows past the slab's length.
    """
    if direction not in (+1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction}")
    k, x, shape = _on_points(omega, x)
    _, ks, prop, c, d, amp_a, amp_b = _outgoing(medium, k)
    a = medium.slab_half_length
    r, t = amp_b / amp_a, prop / amp_a
    launched_left, launched_right = c / amp_a, d * prop / amp_a
    out = _by_region(
        a, k, direction * x,
        lambda x: np.exp(1j * k * x) + r * np.exp(-1j * k * x),
        lambda x: (launched_left * np.exp(1j * ks * (x + a))
                   + launched_right * np.exp(-1j * ks * (x - a))),
        lambda x: t * np.exp(1j * k * x)).reshape(shape)
    return out if out.ndim else complex(out)


def tmm_green(medium: MediumSpec, omega, x, x_src):
    """Outgoing Green function of Phi'' + k^2 eps_r Phi = -delta(x - x_src).

    G(x, x') = -u(-x_<) u(x_>) / W, with u the outgoing solution
    (``_outgoing``), u(-x) its mirror and W = 2ik A their (constant)
    Wronskian. Symmetric in (x, x_src) by construction; reduces to
    (i/2k) e^{ik|x - x'|} in vacuum. Accepts scalar or array x, and a
    scalar or an array of frequencies: an array gives its shape followed
    by the shape of x.
    """
    k, x, shape = _on_points(omega, x)
    u, ks, _, _, _, amp_a, _ = _outgoing(medium, k)
    lo = np.minimum(x, x_src)
    hi = np.maximum(x, x_src)
    # the scalings of u(-lo), u(hi) and W leave e^{i k_s d}, d the slab
    # length between lo and hi: the attenuation, at most 1 in size
    a = medium.slab_half_length
    between = (np.minimum(np.maximum(hi, -a), a)
               - np.minimum(np.maximum(lo, -a), a))
    span = np.exp(1j * ks * between)
    g = (-u(-lo) * u(hi) * span / (2j * k * amp_a)).reshape(shape)
    return g if g.ndim else complex(g)
