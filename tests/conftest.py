import numpy as np
import pytest
from hypothesis import settings

from randpoled import (DispersionModel, DomainError, PolingStructure, ProcessConfig,
                       hom_trace, two_photon_amplitude)
from randpoled import phasematch
from randpoled.phasematch import _detuned
from randpoled.spatial import AngularGrid
from randpoled.spectra import SpectralGrid, SpectralSlice

# CI passes --hypothesis-profile=ci: the property tests then draw the same
# examples on every run, and five times as many as locally.
settings.register_profile("ci", derandomize=True)


def examples(n: int) -> int:
    """max_examples of a property test: n, or 5 n under the ci profile."""
    return 5 * n if settings.get_current_profile_name() == "ci" else n


def dispersion_cancellation_check(source, cfg: ProcessConfig, model,
                                  grid: SpectralGrid, phase_fn,
                                  tau: np.ndarray | None = None) -> float:
    """Max |change of R_n| when a common spectral phase is applied.

    The same phase function (of absolute frequency) multiplies both
    the signal and idler arguments of the amplitude; for cw pumping
    the HOM trace is invariant.  Returns the maximal deviation.
    """
    slice_ = source if isinstance(source, SpectralSlice) \
        else two_photon_amplitude(source, cfg, model, grid)
    base = hom_trace(slice_, cfg, model, slice_.grid, tau)
    omega_s = slice_.grid.omega_s
    omega_i = slice_.omega_i
    phased = SpectralSlice(
        slice_.grid,
        slice_.values * np.exp(1j * (phase_fn(omega_s) + phase_fn(omega_i))),
    )
    mod = hom_trace(phased, cfg, model, slice_.grid, tau)
    return float(np.max(np.abs(mod.values - base.values)))


def f_boundary_sum(s: PolingStructure, dk_total):
    """Boundary-sum approximation F = (2i/dk) sum_n (-1)^n exp(i dk z_n).

    Differs from f_exact only by end-face terms of relative order
    1/N_L.  Rejects dk_total = 0.  Builds its own BoundaryPlan.
    """
    dk = np.asarray(dk_total, dtype=float)
    if np.any(dk == 0.0):
        raise DomainError("boundary sum undefined at zero mismatch; use f_exact")
    w = (-1.0) ** np.arange(s.n_domains + 1)
    # looked up on the module, so that a test that patches it reaches it
    out = 2j / dk.ravel() * phasematch._boundary_sum(s.boundaries, w, dk.ravel())
    return out[0] if dk.ndim == 0 else out.reshape(dk.shape)


def avg_f2_rps_asymptotic(delta_k, n_domains: int, l0: float, sigma: float):
    """Large-disorder asymptote of avg_f2_rps.

    Single-fraction simplification obtained by dropping the bounded
    H^(N_L+1) boundary term of the exact mean, leaving

        4 (N_L+1) (1 - G^2) / [dk_tot^2 |1 - H|^2].

    Valid when v = sigma^2 dk0^2 N_L / 2 >> 1.  Returns
    (values, validity_metric); the caller judges v.  Note the local
    dephasing vanishes as dk_tot -> 0, so the pointwise error grows at
    the small-mismatch edge of the band even when v is large.
    """
    scalar, dk, dk_tot = _detuned(delta_k, l0)
    g = np.exp(-sigma ** 2 * dk_tot ** 2 / 4.0)
    value = (
        4.0 * (n_domains + 1) / dk_tot ** 2
        * (1.0 - g ** 2) / (1.0 - 2.0 * g * np.cos(dk * l0) + g ** 2)
    )
    validity = sigma ** 2 * (np.pi / l0) ** 2 * n_domains / 2.0
    return (float(value[0]) if scalar else value), validity


def angular_grid(omega_s0: float, n_theta_s: int = 64, theta_max: float = 0.05,
                 n_theta_i: int = 128, n_phi: int = 64, n_omega: int = 201,
                 span: float = 0.35) -> AngularGrid:
    """Uniform radial angles on [0, theta_max], n_phi idler azimuths and
    n_omega signal frequencies on omega_s0 (1 +- span)."""
    return AngularGrid(
        theta_s=np.linspace(0.0, theta_max, n_theta_s),
        theta_i=np.linspace(0.0, theta_max, n_theta_i),
        phi_i=np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False),
        omega_s=np.linspace(omega_s0 * (1 - span), omega_s0 * (1 + span), n_omega),
    )


def fab_error_mean_f2(base: PolingStructure, sigma_er: float, dk_total,
                      end_weight: float = 0.5) -> np.ndarray:
    """Exact mean of |F|^2 over apply_fabrication_error(base, sigma_er, .).

    The error random-walks the boundaries, z_n = z_n0 + W_n with W_0 = 0,
    so <exp(i dk (W_n - W_m))> = rho^|n - m|, rho = exp(-sigma_er^2 dk^2 / 2),
    and with a_n = w_n exp(i dk z_n0) the one-pole recursion

        <|F|^2> = (4 / dk^2) [sum |a_n|^2 + 2 Re sum a_n* T_n],
        T_0 = 0,  T_{n+1} = rho (T_n + a_n).

    The weights w_n are +-1, times end_weight on the two end faces: 1/2 is
    f_exact's model, 1 the boundary-sum model of avg_f2_rps.  Redraws of
    nonpositive lengths are ignored.
    """
    dk = np.asarray(dk_total, dtype=float)
    w = (-1.0) ** np.arange(base.n_domains + 1)
    w[[0, -1]] *= end_weight
    rho = np.exp(-sigma_er ** 2 * dk ** 2 / 2.0)
    total = np.zeros(dk.shape)
    t = np.zeros(dk.shape, dtype=complex)
    for w_n, z_n in zip(w, base.boundaries):
        a = w_n * np.exp(1j * dk * z_n)
        total += np.abs(a) ** 2 + 2.0 * np.real(np.conj(a) * t)
        t = rho * (t + a)
    return 4.0 / dk ** 2 * total


@pytest.fixture(scope="session")
def cfg():
    return ProcessConfig()


@pytest.fixture(scope="session")
def model():
    return DispersionModel()


@pytest.fixture(scope="session")
def l0(cfg, model):
    return model.qpm_period(cfg.omega_s0, cfg.omega_s0)


@pytest.fixture(scope="session")
def dk0(l0):
    return np.pi / l0


@pytest.fixture(scope="session")
def grid(cfg):
    return SpectralGrid.default(cfg.omega_s0, n=1025)
