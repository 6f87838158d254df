"""Transverse-plane model: angular densities and correlated areas.

The pump carries a Gaussian transverse profile whose spatial spectrum
multiplies the longitudinal phase-matching response, giving the
separable amplitude Phi = Phi_z * Phi_xy.  Emission angles are
internal to the crystal; exact sines and cosines are used so results
stay valid to tens of milliradians.  The frequency integral over the
idler collapses under cw pumping (omega_i = omega_p0 - omega_s).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dispersion import DispersionModel
from .phasematch import response
from .spectra import ProcessConfig, _f2, _pumped_g, coupling_g, fwhm


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

    @classmethod
    def default(cls, omega_s0: float, n_theta_s: int = 64, theta_max: float = 0.05,
                n_theta_i: int = 128, n_phi: int = 64, n_omega: int = 201,
                span: float = 0.35):
        return cls(
            theta_s=np.linspace(0.0, theta_max, n_theta_s),
            theta_i=np.linspace(0.0, theta_max, n_theta_i),
            phi_i=np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False),
            omega_s=np.linspace(omega_s0 * (1 - span), omega_s0 * (1 + span), n_omega),
        )

    @classmethod
    def on_axis(cls, cfg: ProcessConfig, model: DispersionModel, pump_width: float,
                omega_s, n_theta: int):
        """On-axis signal, one idler azimuth, and theta_i out to 14 / (k_i0 w)
        for a pump of 1/e half-width w, clipped to [0.01, 0.35] rad."""
        k_i0 = model.wavenumber(cfg.omega_s0)
        theta_max = float(np.clip(14.0 / (k_i0 * pump_width), 0.01, 0.35))
        return cls(theta_s=np.array([0.0]),
                   theta_i=np.linspace(0.0, theta_max, n_theta),
                   phi_i=np.array([np.pi]), omega_s=omega_s)


@dataclass(frozen=True)
class AngularDensityMap:
    """Sampled density over named axes with its normalization record."""

    axes: tuple
    coords: tuple
    values: np.ndarray
    normalization: str = "relative"
    meta: dict | None = None


def pump_transverse_spectrum(dkx, dky, cfg: ProcessConfig):
    """Transverse spatial spectrum of the normalized Gaussian pump.

    Fourier transform of exp(-(x/dx)^2 - (y/dy)^2) / (pi dx dy) with
    kernel exp(i(kx x + ky y)); the prefactor of that transform is
    exactly one.
    """
    dkx = np.asarray(dkx, dtype=float)
    dky = np.asarray(dky, dtype=float)
    return np.exp(-(dkx ** 2 * cfg.pump_dx ** 2 + dky ** 2 * cfg.pump_dy ** 2) / 4.0)


def spatial_amplitude(source, cfg: ProcessConfig, model: DispersionModel,
                      omega_s, omega_i, theta_s, phi_s, theta_i, phi_i):
    """Separable amplitude Phi_z * Phi_xy at the given emission geometry.

    Requires a source with a well-defined amplitude (explicit
    structure, chirped or ideal spec).
    """
    dkx, dky, dkz = model.vector_mismatch(omega_s, omega_i, theta_s, phi_s,
                                          theta_i, phi_i)
    f = response(source, dkz)
    if not np.iscomplexobj(f):
        raise SpatialError("amplitude requires an explicit structure or a "
                           "deterministic spec")
    g = coupling_g(omega_s, omega_i, cfg, model)
    return g * cfg.pump_amplitude * f * pump_transverse_spectrum(dkx, dky, cfg)


def _idler_terms(source, cfg, k_s, k_i, k_p, theta_s, phi_s, theta_i_grid,
                 phi_i_grid):
    """|F|^2 over (theta_i, omega_s), from one response call, and the pump
    factor over (theta_i, omega_s, phi_i), for the signal at (theta_s, phi_s)."""
    b = (np.sin(theta_i_grid)[:, None] * k_i)[..., None]
    dkx = (k_s * np.sin(theta_s) * np.sin(phi_s))[:, None] + b * np.sin(phi_i_grid)
    dky = (k_s * np.sin(theta_s) * np.cos(phi_s))[:, None] + b * np.cos(phi_i_grid)
    dkz = k_p - k_s * np.cos(theta_s) - k_i * np.cos(theta_i_grid)[:, None]
    return _f2(source, dkz), np.exp(-(dkx ** 2 * cfg.pump_dx ** 2
                                      + dky ** 2 * cfg.pump_dy ** 2) / 2.0)


def _slice_kinematics(cfg, model, omega_s):
    omega_i = cfg.omega_p0 - omega_s
    if np.any(omega_i <= 0):
        raise SpatialError("frequency grid extends past the pump frequency")
    k_s = model.wavenumber(omega_s)
    k_i = model.wavenumber(omega_i)
    k_p = model.wavenumber(np.full_like(omega_s, cfg.omega_p0))
    return k_s, k_i, k_p, np.abs(_pumped_g(cfg, model, omega_s)) ** 2


def angular_spectral_density(source, cfg: ProcessConfig, model: DispersionModel,
                             grid: AngularGrid,
                             check_convergence: bool = False) -> AngularDensityMap:
    """Signal spectral density over (omega_s, theta_s).

    Quadrature over the idler angles with the exact sin-measure
    factors; the idler frequency is slaved to the signal one (cw).
    With check_convergence=True the idler grids are doubled and the
    relative deviation recorded in the map metadata (warning above 5%).
    """
    omega_s = grid.omega_s
    k_s, k_i, k_p, g2 = _slice_kinematics(cfg, model, omega_s)
    # sin(theta_i) measure with the theta_i and phi_i quadrature weights
    wt = np.gradient(grid.theta_i) if grid.theta_i.size > 1 else np.array([1.0])
    wt = wt * np.sin(grid.theta_i)
    dphi = grid.phi_i[1] - grid.phi_i[0] if grid.phi_i.size > 1 else 2 * np.pi
    values = np.empty((omega_s.size, grid.theta_s.size))
    for m, th_s in enumerate(grid.theta_s):
        f2, trans = _idler_terms(source, cfg, k_s, k_i, k_p, th_s, 0.0,
                                 grid.theta_i, grid.phi_i)
        values[:, m] = np.sin(th_s) * g2 * (wt @ (f2 * trans.sum(axis=2))) * dphi
    meta = {}
    if check_convergence:
        fine = AngularGrid(
            theta_s=grid.theta_s,
            theta_i=np.linspace(grid.theta_i[0], grid.theta_i[-1],
                                2 * grid.theta_i.size - 1),
            phi_i=np.linspace(0.0, 2.0 * np.pi, 2 * grid.phi_i.size, endpoint=False),
            omega_s=omega_s,
        )
        ref = angular_spectral_density(source, cfg, model, fine).values
        scale = ref.max()
        err = float(np.max(np.abs(values - ref)) / scale) if scale > 0 else 0.0
        meta = {"convergence_error": err, "converged": err <= 0.05}
    return AngularDensityMap(
        axes=("omega_s", "theta_s"), coords=(omega_s, grid.theta_s),
        values=values, meta=meta or None,
    )


def radial_photon_density(density_map: AngularDensityMap,
                          normalize: bool = True) -> AngularDensityMap:
    """Frequency-integrated angular profile n_s(theta_s)."""
    if density_map.axes != ("omega_s", "theta_s"):
        raise SpatialError("expected an (omega_s, theta_s) map")
    omega_s, theta_s = density_map.coords
    profile = np.trapezoid(density_map.values, omega_s, axis=0)
    norm = "relative"
    if normalize and profile.max() > 0:
        profile = profile / profile.max()
        norm = "unit-peak"
    return AngularDensityMap(axes=("theta_s",), coords=(theta_s,),
                             values=profile, normalization=norm)


def correlated_area(source, cfg: ProcessConfig, model: DispersionModel,
                    grid: AngularGrid, theta_s: float = 0.0,
                    phi_s: float = 0.0) -> AngularDensityMap:
    """Idler angular distribution conditioned on a fixed signal direction.

    g_i(theta_i, phi_i) with the sin-measure factors; at exactly
    on-axis signal (theta_s = 0) the constant sin(theta_s) prefactor
    is dropped, as only the relative distribution is meaningful.
    """
    omega_s = grid.omega_s
    k_s, k_i, k_p, g2 = _slice_kinematics(cfg, model, omega_s)
    f2, trans = _idler_terms(source, cfg, k_s, k_i, k_p, theta_s, phi_s,
                             grid.theta_i, grid.phi_i)
    integ = np.trapezoid((g2 * f2)[..., None] * trans, omega_s, axis=1)
    values = np.sin(grid.theta_i)[:, None] * integ
    if theta_s > 0:
        values = values * np.sin(theta_s)
    return AngularDensityMap(axes=("theta_i", "phi_i"),
                             coords=(grid.theta_i, grid.phi_i), values=values)


def correlated_width_scan(source, cfg: ProcessConfig, model: DispersionModel,
                          pump_widths, omega_s: np.ndarray,
                          n_theta: int = 320):
    """Radial FWHM of the on-axis correlated area versus pump width.

    The pump is radially symmetric (dx = dy = scanned width); the
    theta range adapts to the expected Fourier-limited angular width.
    Returns a list of dicts (pump_width, delta_theta_i, theta_i, profile).
    """
    omega_s = np.asarray(omega_s, dtype=float)
    rows = []
    for width in np.asarray(pump_widths, dtype=float):
        cfg_w = replace(cfg, pump_dx=float(width), pump_dy=float(width))
        grid = AngularGrid.on_axis(cfg, model, width, omega_s, n_theta)
        area = correlated_area(source, cfg_w, model, grid)
        profile = area.values[:, 0]
        rows.append({
            "pump_width": float(width),
            "delta_theta_i": fwhm(grid.theta_i, profile),
            "theta_i": grid.theta_i,
            "profile": profile,
        })
    return rows
