import numpy as np
import pytest
from hypothesis import settings

from randpoled import (DispersionModel, ProcessConfig, hom_trace,
                       two_photon_amplitude)
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
    omega_i = slice_.omega_p0 - omega_s
    phased = SpectralSlice(
        slice_.grid,
        slice_.values * np.exp(1j * (phase_fn(omega_s) + phase_fn(omega_i))),
        slice_.omega_p0,
    )
    mod = hom_trace(phased, cfg, model, slice_.grid, tau)
    return float(np.max(np.abs(mod.values - base.values)))


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
