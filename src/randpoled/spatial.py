"""Transverse-plane model: angular densities and correlated areas.

The pump carries a Gaussian transverse profile: the squared modulus of
its spatial spectrum at the transverse mismatch multiplies the
longitudinal response |F|^2 at the longitudinal one.  Emission angles are
internal to the crystal; exact sines and cosines are used so results
stay valid to tens of milliradians.  The frequency integral over the
idler collapses under cw pumping (omega_i = omega_p0 - omega_s): the
slice's wavenumbers and coupling come from spectra._cw_slice.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dispersion import DispersionModel
from .phasematch import _BLOCK
from .spectra import ProcessConfig, _cw_slice, _f2, fwhm


class SpatialError(ValueError):
    """Raised for invalid angular grids or sources."""


@dataclass(frozen=True)
class AngularGrid:
    """Signal/idler angular grids plus the signal-frequency grid."""

    theta_s: np.ndarray
    theta_i: np.ndarray
    phi_i: np.ndarray
    omega_s: np.ndarray

    def __post_init__(self):
        for name in ("theta_s", "theta_i", "phi_i", "omega_s"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.ndim != 1:
                raise SpatialError(f"{name} must be one-dimensional")
        if np.any(self.theta_s < 0) or np.any(self.theta_i < 0):
            raise SpatialError("radial angles must be nonnegative")
        if np.any(self.omega_s >= ProcessConfig.omega_p0):
            raise SpatialError("frequency grid extends past the pump frequency")

    @classmethod
    def on_axis(cls, cfg: ProcessConfig, model: DispersionModel, omega_s,
                n_theta: int):
        """On-axis signal, one idler azimuth, and theta_i out to 14 / (k_i0 w)
        for the pump's 1/e half-width w, clipped to [0.01, 0.35] rad."""
        k_i0 = model.wavenumber(cfg.omega_s0)
        theta_max = float(np.clip(14.0 / (k_i0 * cfg.pump_width), 0.01, 0.35))
        return cls(theta_s=np.array([0.0]),
                   theta_i=np.linspace(0.0, theta_max, n_theta),
                   phi_i=np.array([np.pi]), omega_s=omega_s)


def _idler_terms(source, cfg, k_s, k_i, k_p, theta_s, phi_s, theta_i_grid,
                 phi_i_grid):
    """|F|^2 over (theta_i, omega_s), from one spectra._f2 call, and the pump
    factor over (theta_i, omega_s, phi_i), for the signal at (theta_s, phi_s)."""
    b = (np.sin(theta_i_grid)[:, None] * k_i)[..., None]
    dkx = (k_s * np.sin(theta_s) * np.sin(phi_s))[:, None] + b * np.sin(phi_i_grid)
    dky = (k_s * np.sin(theta_s) * np.cos(phi_s))[:, None] + b * np.cos(phi_i_grid)
    dkz = k_p - k_s * np.cos(theta_s) - k_i * np.cos(theta_i_grid)[:, None]
    w = cfg.pump_width
    return _f2(source, dkz), np.exp(-(dkx ** 2 * w ** 2 + dky ** 2 * w ** 2) / 2.0)


def angular_spectral_density(source, cfg: ProcessConfig, model: DispersionModel,
                             grid: AngularGrid) -> np.ndarray:
    """Signal spectral density over (omega_s, theta_s).

    Quadrature over the idler angles with the exact sin-measure
    factors; the idler frequency is slaved to the signal one (cw).
    """
    omega_s = grid.omega_s
    _, k_s, k_i, k_p, _, g = _cw_slice(cfg, model, omega_s)
    # sin(theta_i) measure with the theta_i and phi_i quadrature weights
    wt = np.gradient(grid.theta_i) if grid.theta_i.size > 1 else np.array([1.0])
    wt = wt * np.sin(grid.theta_i)
    dphi = grid.phi_i[1] - grid.phi_i[0] if grid.phi_i.size > 1 else 2 * np.pi
    values = np.empty((omega_s.size, grid.theta_s.size))
    for m, th_s in enumerate(grid.theta_s):
        f2, trans = _idler_terms(source, cfg, k_s, k_i, k_p, th_s, 0.0,
                                 grid.theta_i, grid.phi_i)
        values[:, m] = np.sin(th_s) * np.abs(g) ** 2 * (wt @ (f2 * trans.sum(axis=2))) * dphi
    return values


def correlated_area(source, cfg: ProcessConfig, model: DispersionModel,
                    grid: AngularGrid, theta_s: float = 0.0,
                    phi_s: float = 0.0) -> np.ndarray:
    """Idler angular distribution conditioned on a fixed signal direction.

    g_i over (theta_i, phi_i) with the sin-measure factors; at exactly
    on-axis signal (theta_s = 0) the constant sin(theta_s) prefactor
    is dropped, as only the relative distribution is meaningful.
    """
    omega_s = grid.omega_s
    _, k_s, k_i, k_p, _, g = _cw_slice(cfg, model, omega_s)
    values = np.empty((grid.theta_i.size, grid.phi_i.size))
    # theta_i rows in blocks of at most _BLOCK (theta_i x omega x phi_i)
    # points: each row reduces along omega alone, in cache
    rows = max(1, _BLOCK // max(1, omega_s.size * grid.phi_i.size))
    for r0 in range(0, grid.theta_i.size, rows):
        theta_i = grid.theta_i[r0:r0 + rows]
        f2, trans = _idler_terms(source, cfg, k_s, k_i, k_p, theta_s, phi_s,
                                 theta_i, grid.phi_i)
        integ = np.trapezoid((np.abs(g) ** 2 * f2)[..., None] * trans, omega_s, axis=1)
        values[r0:r0 + rows] = np.sin(theta_i)[:, None] * integ
    if theta_s > 0:
        values *= np.sin(theta_s)
    return values


def correlated_width_scan(source, cfg: ProcessConfig, model: DispersionModel,
                          pump_widths, omega_s: np.ndarray,
                          n_theta: int = 320):
    """Radial FWHM of the on-axis correlated area versus pump width.

    The pump takes each scanned width in turn; the theta range adapts to
    the expected Fourier-limited angular width.
    Returns a list of dicts (pump_width, delta_theta_i, profile).
    """
    omega_s = np.asarray(omega_s, dtype=float)
    rows = []
    for width in np.asarray(pump_widths, dtype=float):
        cfg_w = replace(cfg, pump_width=float(width))
        grid = AngularGrid.on_axis(cfg_w, model, omega_s, n_theta)
        profile = correlated_area(source, cfg_w, model, grid)[:, 0]
        rows.append({
            "pump_width": float(width),
            "delta_theta_i": fwhm(grid.theta_i, profile),
            "profile": profile,
        })
    return rows
