"""Temperature-dependent dispersion and phase mismatches.

The material is congruent lithium niobate for the extraordinary wave,
using the temperature-dependent Sellmeier equation of D. H. Jundt, Opt.
Lett. 22, 1553 (1997).  All three interacting fields (pump, signal,
idler) are extraordinary waves.

Frequencies are angular (rad/s) everywhere inside the library; helpers
convert to and from vacuum wavelengths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# speed of light in vacuum, m/s (exact, SI)
SPEED_OF_LIGHT = 299792458.0

# Supported vacuum-wavelength band, meters.
BAND_MIN = 0.4e-6
BAND_MAX = 4.0e-6

# Jundt (1997) coefficients for the extraordinary index of congruent
# LiNbO3.  `a` are the temperature-independent terms, `b` the
# temperature-dependent ones; wavelengths in micrometers, temperature in
# degrees Celsius through f = (T - 24.5)(T + 570.82).
JUNDT_A = (5.35583, 0.100473, 0.20692, 100.0, 11.34927, 1.5334e-2)
JUNDT_B = (4.629e-7, 3.862e-8, -0.89e-8, 2.657e-5)


class DispersionError(ValueError):
    """Raised for out-of-band frequencies or unmatchable processes."""


def omega_from_wavelength(lam: float) -> float:
    """Angular frequency (rad/s) for a vacuum wavelength in meters."""
    return 2.0 * np.pi * SPEED_OF_LIGHT / lam


def wavelength_from_omega(omega):
    """Vacuum wavelength in meters for an angular frequency in rad/s."""
    return 2.0 * np.pi * SPEED_OF_LIGHT / omega


@dataclass(frozen=True)
class DispersionModel:
    """Refractive index n(omega, T) of congruent LiNbO3, extraordinary wave.

    Immutable; all methods are pure functions and accept scalars or
    numpy arrays of angular frequency.
    """

    temperature: float = 297.0  # kelvin

    def __post_init__(self):
        if not 0.0 < self.temperature < np.inf:
            raise DispersionError(f"temperature must be a positive finite number of "
                                  f"kelvin, got {self.temperature!r}")

    def refractive_index(self, omega):
        """Extraordinary refractive index at angular frequency omega.

        Raises DispersionError if the vacuum wavelength falls outside
        the supported band.
        """
        omega = np.asarray(omega, dtype=float)
        lam = wavelength_from_omega(omega)
        if np.any(lam < BAND_MIN) or np.any(lam > BAND_MAX):
            raise DispersionError(
                "wavelength outside supported band "
                f"[{BAND_MIN * 1e6:.1f}, {BAND_MAX * 1e6:.1f}] um"
            )
        a, b = JUNDT_A, JUNDT_B
        t_c = self.temperature - 273.15
        f = (t_c - 24.5) * (t_c + 570.82)
        l2 = (lam * 1e6) ** 2
        n2 = (
            a[0] + b[0] * f
            + (a[1] + b[1] * f) / (l2 - (a[2] + b[2] * f) ** 2)
            + (a[3] + b[3] * f) / (l2 - a[4] ** 2)
            - a[5] * l2
        )
        n = np.sqrt(n2)
        return n if n.ndim else float(n)

    def wavenumber(self, omega):
        """k(omega) = n(omega) * omega / c, in 1/m."""
        return self.refractive_index(omega) * np.asarray(omega, dtype=float) / SPEED_OF_LIGHT

    def collinear_mismatch(self, omega_s, omega_i):
        """Collinear phase mismatch dk = k_p(w_s + w_i) - k_s(w_s) - k_i(w_i)."""
        omega_s = np.asarray(omega_s, dtype=float)
        omega_i = np.asarray(omega_i, dtype=float)
        dk = (
            self.wavenumber(omega_s + omega_i)
            - self.wavenumber(omega_s)
            - self.wavenumber(omega_i)
        )
        return dk if np.ndim(dk) else float(dk)

    def qpm_period(self, omega_s0, omega_i0):
        """Basic domain length l0 = pi / dk0 at the design frequencies."""
        dk0 = self.collinear_mismatch(omega_s0, omega_i0)
        if dk0 <= 0.0:
            raise DispersionError(
                "nonpositive collinear mismatch: process not "
                "quasi-phase-matchable with first-order poling"
            )
        return np.pi / dk0
