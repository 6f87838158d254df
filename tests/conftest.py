import numpy as np
import pytest
from hypothesis import settings

from randpoled import DispersionModel, ProcessConfig
from randpoled.spectra import SpectralGrid

# CI passes --hypothesis-profile=ci: the property tests then draw the same
# examples on every run, and five times as many as locally.
settings.register_profile("ci", derandomize=True)


def examples(n: int) -> int:
    """max_examples of a property test: n, or 5 n under the ci profile."""
    return 5 * n if settings.get_current_profile_name() == "ci" else n


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
