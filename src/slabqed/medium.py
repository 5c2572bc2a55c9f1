"""Lorentz-oscillator slab medium.

Everything in this package works in normalized units: hbar = eps0 = mu0 = c = 1.
With c = 1 an angular frequency and a vacuum wavenumber are the same number, so
``omega`` arguments below are wavenumbers in rad/m and lengths are in meters.
Time dependence is e^{-i omega t}; a passive medium therefore has
Im chi(omega) >= 0 for omega >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MediumSpec:
    """Homogeneous Lorentz slab centered at x = 0.

    Parameters
    ----------
    omega_p : float
        Coupling strength (plasma frequency). ``omega_p = 0`` is an empty
        slab, i.e. vacuum everywhere; useful as a baseline.
    omega_0 : float
        Resonance frequency of the oscillator.
    gamma : float
        Damping rate. ``gamma >= 0``; zero gives a lossless (real chi away
        from resonance) medium.
    slab_half_length : float
        The slab occupies ``[-slab_half_length, +slab_half_length]``.
    """

    omega_p: float
    omega_0: float
    gamma: float
    slab_half_length: float

    def __post_init__(self) -> None:
        for name in ("omega_p", "omega_0", "gamma", "slab_half_length"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        # chi squares omega_p and omega_0 and multiplies gamma by a
        # frequency: a value whose square passes the largest double would
        # overflow in every susceptibility evaluated
        for name in ("omega_p", "omega_0", "gamma"):
            value = getattr(self, name)
            if not math.isfinite(value * value):
                raise ValueError(
                    f"{name} must have a finite square, got {value!r}")
        if self.omega_p < 0:
            raise ValueError(f"omega_p must be >= 0, got {self.omega_p}")
        if self.omega_0 <= 0:
            raise ValueError(f"omega_0 must be > 0, got {self.omega_0}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.slab_half_length <= 0:
            raise ValueError(
                f"slab_half_length must be > 0, got {self.slab_half_length}"
            )

    @property
    def slab_length(self) -> float:
        return 2.0 * self.slab_half_length

    def pole_at(self, omega: float) -> bool:
        """Whether chi has a pole at omega: a lossless slab at omega_0.

        True exactly where ``susceptibility`` divides by zero: both parts
        of its denominator are formed as there (numpy squares a float as
        omega * omega), and two floats differ by zero only when equal.
        """
        return (self.gamma * omega == 0.0
                and self.omega_0 * self.omega_0 == omega * omega)

    def susceptibility(self, omega):
        """chi(omega) = omega_p^2 / (omega_0^2 - omega^2 - i omega gamma).

        Accepts a scalar or an ndarray; returns complex. The minus sign on
        the damping term is what makes the response causal/passive with the
        e^{-i omega t} convention (Im chi >= 0 for omega >= 0).
        """
        omega = np.asarray(omega, dtype=float)
        # omega_0 * omega_0, not omega_0**2: Python's float ** calls the C
        # pow, which can round a square one ulp away from numpy's omega**2
        # (omega * omega) and so move the lossless pole off omega_0
        denom = (self.omega_0 * self.omega_0 - omega**2
                 - 1j * omega * self.gamma)
        # + 0j turns the signed zeros of an empty slab (omega_p = 0) into
        # +0 and leaves every other value as it is
        chi = self.omega_p**2 / denom + 0j
        return chi if chi.ndim else complex(chi)


# Reference parameter set used throughout: a slab of length 1/16 m with a
# resonance at omega_0 = 500 rad/m probed around its absorption band.
SLAB_HALF_LENGTH = 0.03125

CASE_PRESETS: dict[str, MediumSpec] = {
    # strongly damped: broad absorption band
    "1": MediumSpec(omega_p=100.0, omega_0=500.0, gamma=50.0,
                    slab_half_length=SLAB_HALF_LENGTH),
    # weakly damped: narrow band, slab nearly transparent off resonance
    "2": MediumSpec(omega_p=100.0, omega_0=500.0, gamma=5.0,
                    slab_half_length=SLAB_HALF_LENGTH),
    # empty slab, for baselines and calibration
    "vacuum": MediumSpec(omega_p=0.0, omega_0=500.0, gamma=50.0,
                         slab_half_length=SLAB_HALF_LENGTH),
}

# Atom positions used by the presets: ATOM_INSIDE sits at the slab center,
# ATOM_OUTSIDE one slab length past it (one half-length outside the face).
ATOM_INSIDE = 0.0
ATOM_OUTSIDE = 0.0625


# the case labels ``case_preset`` resolves, as the CLI spells them
CASE_NAMES = ("1A", "1B", "2A", "2B", "vacuum")


def case_preset(name: str) -> tuple[MediumSpec, float]:
    """Resolve a case label like ``"1A"`` to (medium, atom position).

    The digit selects the damping (1 = gamma 50, 2 = gamma 5), the letter the
    atom site (A = slab center, B = outside the slab). ``"vacuum"`` maps to
    the empty slab with the atom at the origin. A label is one of
    ``CASE_NAMES``, in any case and with surrounding blanks.
    """
    label = name.strip().upper()
    if label == "VACUUM":
        return CASE_PRESETS["vacuum"], ATOM_INSIDE
    if label in CASE_NAMES:
        medium = CASE_PRESETS[label[0]]
        x_atom = ATOM_INSIDE if label[1] == "A" else ATOM_OUTSIDE
        return medium, x_atom
    raise ValueError(
        f"unknown case {name!r}: expected one of {', '.join(CASE_NAMES)}"
    )
